"""``eigen.char_poly`` (Berkowitz over Z[i]) against the Faddeev-LeVerrier
oracle on ``QI`` entries.

The coefficients must be exactly those of ``matrix_oracle.char_poly``: on
random square shapes up to 9 x 9 (dense, nilpotent, zero, identity and
diagonal blocks), on entries with 200-bit numerators over mixed Gaussian
denominators, on every matrix ``char_poly`` receives while the seeded
plane families reduce in exact and float mode, on hypothesis-drawn small
matrices, and on a rational type that offers only ``numerator`` and
``denominator``.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import matrix_oracle as oracle
from conftest import rng
from monadcalc import eigen
from monadcalc.errors import InfeasibleSpec
from monadcalc.field import ONE, ZERO, qi
from monadcalc.generate import GenSpec, generate, random_invertible
from monadcalc.matrix import Matrix, block, inverse
from monadcalc.p2 import canonical_reduction
from test_matrix_oracle import _entries, _opaque


def _assert_matches_oracle(M):
    assert eigen.char_poly(M) == oracle.char_poly(M), M


def _entry(r_, bits):
    if r_.random() < 0.2:
        return ZERO
    im = r_.randint(-2 ** bits, 2 ** bits) if r_.random() < 0.6 else 0
    return qi(Fraction(r_.randint(-2 ** bits, 2 ** bits),
                       r_.choice((1, 1, 2, 3, 7, 2 ** bits + 1))),
              Fraction(im, r_.choice((1, 2, 5, 3 ** 20))))


def _matrix(r_, n, bits):
    return Matrix(n, n, [_entry(r_, bits) for _ in range(n * n)])


def _random_case(r_, n, bits):
    kind = r_.choice(("dense", "nilpotent", "zero", "identity", "diagonal"))
    if kind == "nilpotent":  # strictly upper triangular, conjugated
        T = Matrix(n, n, [_entry(r_, bits) if j > i else ZERO
                          for i in range(n) for j in range(n)])
        g = random_invertible(r_, n)
        return inverse(g) @ T @ g
    if kind == "zero":
        return Matrix.zeros(n, n)
    if kind == "identity":
        return Matrix.identity(n).scale(_entry(r_, bits))
    if kind == "diagonal" and n:  # diagonal blocks with a dense border
        m = r_.randint(0, n)
        D = Matrix.diagonal([_entry(r_, bits) for _ in range(m)])
        return block([[D, _matrix(r_, n, bits).submatrix(range(m),
                                                         range(m, n))],
                      [Matrix.zeros(n - m, m), _matrix(r_, n - m, bits)]])
    return _matrix(r_, n, bits)


def test_random_shapes_match_oracle():
    r_ = rng(120)
    for n in range(10):
        for _ in range(8 if n < 6 else 3):
            _assert_matches_oracle(_random_case(r_, n, bits=4))


def test_wide_entries_match_oracle():
    """200-bit numerators over mixed Gaussian denominators."""
    r_ = rng(121)
    for n in (0, 1, 2, 3, 4, 5, 7, 9):
        _assert_matches_oracle(_random_case(r_, n, bits=200))


def test_known_polynomials():
    assert eigen.char_poly(Matrix.zeros(0, 0)) == [ONE]
    assert eigen.char_poly(Matrix.from_rows([[qi(0, 1)]])) == [ONE, qi(0, -1)]
    # [[0, 1], [-1, 0]] / 2: t^2 + 1/4
    R = Matrix.from_rows([[0, qi("1/2")], [qi("-1/2"), 0]])
    assert eigen.char_poly(R) == [ONE, ZERO, qi("1/4")]
    # the 3 x 3 shift: t^3
    S = Matrix(3, 3, [ONE if j == i + 1 else ZERO
                      for i in range(3) for j in range(3)])
    assert eigen.char_poly(S) == [ONE, ZERO, ZERO, ZERO]


def test_seeded_reductions_match_oracle(monkeypatch):
    """Every matrix whose polynomial canonical_reduction asks for on the
    seeded plane families with k <= 6, in exact and in float mode."""
    seen = {}
    berkowitz = eigen.char_poly

    def recording(M):
        seen.setdefault(M, None)
        return berkowitz(M)

    monkeypatch.setattr(eigen, "char_poly", recording)
    for family in ("commuting_points", "block_concentrated", "charge_one"):
        for k in range(1, 7):
            for r in (1, 2):
                try:
                    m = generate(GenSpec(k=k, r=r, seed=k + r, family=family))
                except InfeasibleSpec:
                    continue
                for mode in ("exact", "float"):
                    canonical_reduction(m, eigen_mode=mode)
    assert max(M.rows for M in seen) == 6  # k = 6 blocks were reached
    for M in seen:
        _assert_matches_oracle(M)


def test_reads_only_numerator_and_denominator():
    """Another rational type (gmpy2's mpq) works unchanged."""
    r_ = rng(122)
    for n in range(7):
        M = _random_case(r_, n, bits=8)
        assert eigen.char_poly(_opaque(M)) == oracle.char_poly(M)


@st.composite
def _square_matrices(draw, max_size=5):
    n = draw(st.integers(0, max_size))
    return Matrix(n, n, draw(st.lists(_entries, min_size=n * n,
                                      max_size=n * n)))


@settings(max_examples=150, deadline=None, database=None)
@given(_square_matrices())
def test_hypothesis_matrices_match_oracle(M):
    _assert_matches_oracle(M)
