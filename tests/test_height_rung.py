"""One rung of the height ladder for validation and reduction: a
``commuting_points`` tuple of charge 6, acted on by g with 10-digit
Gaussian-integer entries, so that its entries have over 200 bits, far
above the 79 bits that the seeded families reach.

``validate_p2`` is checked against sympy's ``DomainMatrix`` over QQ_I
(``test_validate_oracle``), on the tuple and on a non-integrable variant.
The points of ``canonical_reduction`` are checked against the diagonal
pairs that the action preserves and, through the characteristic
polynomials of combinations s a1 + u a2, against the Faddeev-LeVerrier
oracle on ``QI`` entries (``matrix_oracle.char_poly``).
"""

import matrix_oracle
from conftest import rng
from monadcalc.field import I, ONE, ZERO, qi
from monadcalc.matrix import Matrix
from monadcalc.p2 import MonadDataP2, act, canonical_reduction
from test_trivialize_oracle import _bits
from test_validate_oracle import oracle_verdict, verdict

# the joint eigenvalue pairs: one pair twice, and a1-eigenvalues that
# repeat with different a2-eigenvalues, so a1 alone does not pair them
PAIRS = [(qi("1/2"), qi(-3, 1)), (qi("1/2"), qi(-3, 1)), (qi("1/2"), qi(2)),
         (qi(-3, 1), qi(0)), (qi(0, 2), qi("5/3", -1)), (qi("-7/4"), qi(0, 1))]


def _rung(k=6, r=2, digits=10):
    """act(g, m) for m = (diag, diag, 0, 0) with the pairs PAIRS, the shape
    of a ``commuting_points`` tuple, and g with random digits-digit
    Gaussian-integer entries."""
    r_ = rng(190)
    lo, hi = 10 ** (digits - 1), 10 ** digits - 1

    def part():
        return r_.choice((1, -1)) * r_.randint(lo, hi)

    g = Matrix(k, k, [qi(part(), part()) for _ in range(k * k)])
    m = MonadDataP2(Matrix.diagonal([p[0] for p in PAIRS]),
                    Matrix.diagonal([p[1] for p in PAIRS]),
                    Matrix.zeros(k, r), Matrix.zeros(r, k))
    return act(g, m)


def _poly(roots):
    """The coefficients, highest first, of the product of (t - x) over roots."""
    coeffs = [ONE]
    for x in roots:
        coeffs = [a - x * b for a, b in zip(coeffs + [ZERO], [ZERO] + coeffs)]
    return coeffs


def test_rung_exceeds_the_seeded_heights():
    assert _bits(_rung()) > 200


def test_validate_matches_domain_matrix_on_the_rung():
    """The acted tuple is valid.  With b = (1 0) in every row and c's
    first row set to a1's, b c is not zero, and the defect is sympy's."""
    m = _rung()
    assert verdict(m) == oracle_verdict(m) == ("valid", None)
    k, r = m.k, m.r
    b = Matrix(k, r, [ONE if j == 0 else ZERO for _ in range(k) for j in range(r)])
    c = Matrix(r, k, [m.a1[0, j] if i == 0 else ZERO
                      for i in range(r) for j in range(k)])
    broken = MonadDataP2(m.a1, m.a2, b, c)
    assert _bits(broken) > 200
    found = verdict(broken)
    assert found[0] == "IntegrabilityViolation"
    assert found == oracle_verdict(broken)


def test_reduction_points_on_the_rung():
    """b = c = 0, so the whole of W splits off and the points are the six
    diagonal pairs, with their multiplicity; the characteristic
    polynomials of s a1 + u a2, for four pairs (s, u), have the roots
    s x + u y over the points (x, y)."""
    m = _rung()
    du = canonical_reduction(m)
    assert (du.l, du.approx, du.total_charge) == (0, False, 6)
    assert sorted(du.points, key=repr) == sorted(PAIRS, key=repr)
    for s, u in ((ONE, ZERO), (ZERO, ONE), (ONE, ONE), (ONE, I)):
        M = m.a1.scale(s) + m.a2.scale(u)
        roots = [s * x + u * y for x, y in du.points]
        assert matrix_oracle.char_poly(M) == _poly(roots), (s, u)
