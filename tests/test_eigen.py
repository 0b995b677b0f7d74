"""Characteristic polynomials, exact spectra, simultaneous triangularization."""

import pytest
import sympy

from conftest import rng
from monadcalc import eigen
from monadcalc.eigen import (approx_joint_eigenvalue_pairs, char_poly,
                             commuting_reduce, eigenvalues,
                             joint_eigenvalue_pairs, roots_in_qi)
from monadcalc.errors import InfeasibleSpec, IrrationalSpectrum, NonCommuting
from monadcalc.field import I, ONE, ZERO, qi
from monadcalc.generate import GenSpec, generate, random_invertible
from monadcalc.matrix import Matrix, inverse
from monadcalc.p2 import canonical_reduction


def test_char_poly_small_cases():
    # det(tI - diag(1, 2)) = t^2 - 3t + 2
    assert char_poly(Matrix.diagonal([1, 2])) == [ONE, qi(-3), qi(2)]
    J = Matrix.from_rows([[0, 1], [0, 0]])
    assert char_poly(J) == [ONE, ZERO, ZERO]
    # companion-style: [[0,2],[1,0]] has t^2 - 2
    M = Matrix.from_rows([[0, 2], [1, 0]])
    assert char_poly(M) == [ONE, ZERO, qi(-2)]


def test_char_poly_conjugation_invariant():
    r_ = rng(20)
    for _ in range(10):
        n = r_.randint(1, 4)
        M = Matrix(n, n, [qi(r_.randint(-5, 5)) for _ in range(n * n)])
        g = random_invertible(r_, n)
        gi = inverse(g)
        assert char_poly(gi @ M @ g) == char_poly(M)


def test_roots_in_qi():
    # t^2 - 3t + 2 = (t-1)(t-2)
    assert roots_in_qi([ONE, qi(-3), qi(2)]) == [(qi(1), 1), (qi(2), 1)]
    # t^2 + 1 splits over Q(i): roots -i, i
    assert roots_in_qi([ONE, ZERO, ONE]) == [(qi(0, -1), 1), (qi(0, 1), 1)]
    # (t - 1/2)^2
    assert roots_in_qi([ONE, qi(-1), qi("1/4")]) == [(qi("1/2"), 2)]
    with pytest.raises(IrrationalSpectrum):
        roots_in_qi([ONE, ZERO, qi(-2)])  # t^2 - 2


# -- roots_in_qi against sympy's factorization over QQ_I --------------------

def _oracle_roots(coeffs):
    """Roots with multiplicity from sympy's factor_list over QQ_I."""
    t = sympy.Symbol("t")
    deg = len(coeffs) - 1
    expr = sum((sympy.Rational(c.re_str()) + sympy.I * sympy.Rational(c.im_str()))
               * t ** (deg - j) for j, c in enumerate(coeffs))
    _, factors = sympy.Poly(expr, t, domain="QQ_I").factor_list()
    found = []
    for fac, mult in factors:
        if fac.degree() > 1:
            raise IrrationalSpectrum("does not split")
        a, b = fac.all_coeffs()
        re, im = sympy.expand(-b / a).as_real_imag()
        found.append((qi(f"{re.p}/{re.q}", f"{im.p}/{im.q}"), mult))
    return sorted(found, key=lambda rm: rm[0].sort_key())


def _outcome(find, coeffs):
    try:
        return find(coeffs)
    except IrrationalSpectrum:
        return "IrrationalSpectrum"


def _assert_matches_oracle(polys):
    for coeffs in polys:
        assert _outcome(roots_in_qi, coeffs) == _outcome(_oracle_roots, coeffs), coeffs


def _expand(roots):
    """Coefficients of prod (t - root), leading first."""
    coeffs = [ONE]
    for root in roots:
        coeffs = [a - root * b for a, b in zip(coeffs + [ZERO], [ZERO] + coeffs)]
    return coeffs


@pytest.fixture
def fallback_calls(monkeypatch):
    """Counts the polynomials handed to the sympy fallback."""
    calls = []
    exact = eigen._sympy_roots

    def counting(F, D):
        calls.append(F)
        return exact(F, D)

    monkeypatch.setattr(eigen, "_sympy_roots", counting)
    return calls


def test_roots_match_oracle_on_seeded_reductions(monkeypatch, fallback_calls):
    """Every polynomial canonical_reduction meets on the seeded plane
    families with k <= 6 splits through verified candidates alone."""
    seen = {}
    exact = eigen.roots_in_qi

    def recording(coeffs):
        seen.setdefault(tuple(coeffs), None)
        return exact(coeffs)

    monkeypatch.setattr(eigen, "roots_in_qi", recording)
    for family in ("commuting_points", "block_concentrated", "charge_one"):
        for k in range(1, 7):
            for r in (1, 2, 3):
                for seed in range(2):
                    try:
                        m = generate(GenSpec(k=k, r=r, seed=seed, family=family))
                    except InfeasibleSpec:
                        continue
                    canonical_reduction(m)
    assert fallback_calls == []
    assert max(len(c) for c in seen) == 7  # k = 6 blocks were reached
    _assert_matches_oracle([list(c) for c in seen])


def test_roots_match_oracle_on_random_char_polys():
    """300 characteristic polynomials of random matrices up to 3 x 3: raw
    entries (mostly irreducible) and conjugated triangular matrices
    (split, often with repeated roots)."""
    r_ = rng(24)

    def entry():
        im = r_.randint(-2, 2) if r_.random() < 0.5 else 0
        return qi(f"{r_.randint(-3, 3)}/{r_.choice((1, 1, 2, 3))}", im)

    polys = []
    for j in range(300):
        n = r_.randint(1, 3)
        if j % 2:
            M = Matrix(n, n, [entry() for _ in range(n * n)])
        else:
            diag = [entry(), entry()]
            T = Matrix(n, n, [r_.choice(diag) if a == b else
                              entry() if b > a else ZERO
                              for a in range(n) for b in range(n)])
            g = random_invertible(r_, n)
            M = inverse(g) @ T @ g
        polys.append(char_poly(M))
    _assert_matches_oracle(polys)


def test_roots_hard_cases(fallback_calls):
    big = qi(2 ** 70 + 1, 3)
    cases = {
        "sextuple": _expand([qi("7/3", "-5/11")] * 6),
        "double": _expand([big, big]),
        "huge": [ONE, qi(-10 ** 400)],
        "constant": [ONE],
    }
    assert roots_in_qi(cases["sextuple"]) == [(qi("7/3", "-5/11"), 6)]
    assert roots_in_qi(cases["double"]) == [(big, 2)]
    assert roots_in_qi(cases["huge"]) == [(qi(10 ** 400), 1)]
    assert roots_in_qi(cases["constant"]) == []
    _assert_matches_oracle(cases.values())
    assert fallback_calls == []


def test_roots_fall_back_exactly_when_candidates_miss(fallback_calls):
    # coefficients too large for floats: no candidate, sympy decides
    too_big = _expand([qi(10 ** 400), qi("1/3", -1)])
    assert roots_in_qi(too_big) == [(qi("1/3", -1), 1), (qi(10 ** 400), 1)]
    # one verified root, an irreducible quadratic left over
    mixed = [ONE, qi(-1), qi(-2), qi(2)]  # (t - 1)(t^2 - 2)
    with pytest.raises(IrrationalSpectrum):
        roots_in_qi(mixed)
    assert len(fallback_calls) == 2
    _assert_matches_oracle([too_big, mixed])


def test_eigenvalues_matrix_level():
    assert eigenvalues(Matrix.diagonal([1, 1, 2])) == [(qi(1), 2), (qi(2), 1)]
    # rotation matrix [[0,-1],[1,0]]: eigenvalues -i, i
    R = Matrix.from_rows([[0, -1], [1, 0]])
    assert eigenvalues(R) == [(-I, 1), (I, 1)]
    with pytest.raises(IrrationalSpectrum):
        eigenvalues(Matrix.from_rows([[0, 2], [1, 0]]))


def test_commuting_reduce_examples():
    g, (t1, t2) = commuting_reduce([Matrix.diagonal([1, 2]),
                                    Matrix.diagonal([3, 4])])
    assert t1.is_upper_triangular() and t2.is_upper_triangular()
    assert sorted([(t1[j, j], t2[j, j]) for j in range(2)],
                  key=lambda p: p[0].sort_key()) == [(qi(1), qi(3)),
                                                     (qi(2), qi(4))]

    J = Matrix.from_rows([[0, 1], [0, 0]])
    _, (u1, u2) = commuting_reduce([J, Matrix.zeros(2, 2)])
    assert u1.is_upper_triangular() and u2.is_zero()
    assert u1[0, 0].is_zero() and u1[1, 1].is_zero()

    S = Matrix.from_rows([[0, 1], [1, 0]])
    g, (t,) = commuting_reduce([S])
    assert t.is_upper_triangular()
    assert {t[0, 0], t[1, 1]} == {qi(1), qi(-1)}
    gi = inverse(g)
    assert gi @ S @ g == t


def test_commuting_reduce_rejects_noncommuting():
    A = Matrix.from_rows([[0, 1], [0, 0]])
    B = Matrix.from_rows([[0, 0], [1, 0]])
    with pytest.raises(NonCommuting):
        commuting_reduce([A, B])


def test_commuting_reduce_random_conjugated_diagonals():
    r_ = rng(21)
    for _ in range(8):
        n = r_.randint(1, 4)
        d1 = Matrix.diagonal([r_.randint(-4, 4) for _ in range(n)])
        d2 = Matrix.diagonal([r_.randint(-4, 4) for _ in range(n)])
        g0 = random_invertible(r_, n)
        g0i = inverse(g0)
        m1, m2 = g0i @ d1 @ g0, g0i @ d2 @ g0
        g, (t1, t2) = commuting_reduce([m1, m2])
        gi = inverse(g)
        assert gi @ m1 @ g == t1 and gi @ m2 @ g == t2
        assert t1.is_upper_triangular() and t2.is_upper_triangular()
        assert char_poly(t1) == char_poly(d1)


def test_joint_eigenvalue_pairs():
    pairs = joint_eigenvalue_pairs(Matrix.diagonal([1, 2]),
                                   Matrix.diagonal([3, 4]))
    assert pairs == [(qi(1), qi(3)), (qi(2), qi(4))]
    # the pairing matters: joint pairs, not a product of spectra
    r_ = rng(22)
    g = random_invertible(r_, 3)
    gi = inverse(g)
    m1 = gi @ Matrix.diagonal([0, 0, 5]) @ g
    m2 = gi @ Matrix.diagonal([1, 2, 7]) @ g
    assert joint_eigenvalue_pairs(m1, m2) == [(qi(0), qi(1)), (qi(0), qi(2)),
                                              (qi(5), qi(7))]
    assert joint_eigenvalue_pairs(Matrix.zeros(0, 0), Matrix.zeros(0, 0)) == []


def test_approx_pairs_match_exact_on_rational_input():
    r_ = rng(23)
    g = random_invertible(r_, 3)
    gi = inverse(g)
    m1 = gi @ Matrix.diagonal([1, 2, 3]) @ g
    m2 = gi @ Matrix.diagonal([-1, 0, 4]) @ g
    exact = joint_eigenvalue_pairs(m1, m2)
    approx = approx_joint_eigenvalue_pairs(m1, m2)
    assert len(exact) == len(approx)
    for (e1, e2), (a1, a2) in zip(exact, approx):
        assert abs(complex(e1) - a1) < 1e-8
        assert abs(complex(e2) - a2) < 1e-8


def test_approx_pairs_handle_irrational_spectrum():
    # [[0,2],[1,0]] commutes with itself; eigenvalues +-sqrt(2)
    M = Matrix.from_rows([[0, 2], [1, 0]])
    pairs = approx_joint_eigenvalue_pairs(M, M)
    vals = sorted(p[0].real for p in pairs)
    assert abs(vals[0] + 2 ** 0.5) < 1e-8
    assert abs(vals[1] - 2 ** 0.5) < 1e-8
