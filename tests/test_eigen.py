"""Characteristic polynomials, exact spectra, simultaneous triangularization."""

import time
from math import prod

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
    # a leading coefficient other than one is divided out first
    assert roots_in_qi([qi(2), qi(4)]) == [(qi(-2), 1)]
    assert roots_in_qi([qi(2), ZERO, qi(-2)]) == [(qi(-1), 1), (qi(1), 1)]
    assert roots_in_qi([qi(3), qi(-6), qi(3)]) == [(qi(1), 2)]
    assert roots_in_qi([qi(0, 2), ZERO, qi(0, -2)]) == [(qi(-1), 1), (qi(1), 1)]
    with pytest.raises(IrrationalSpectrum):
        roots_in_qi([ONE, ZERO, qi(-2)])  # t^2 - 2


def test_roots_in_qi_rejects_bad_coefficient_lists():
    with pytest.raises(ValueError):
        roots_in_qi([])
    with pytest.raises(ValueError):
        roots_in_qi([0, 1])
    with pytest.raises(ValueError):
        roots_in_qi([ZERO, ONE, qi(2)])


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


def test_roots_match_oracle_on_seeded_reductions(monkeypatch):
    """Every characteristic polynomial whose roots canonical_reduction
    decides on the seeded plane families with k <= 6."""
    seen = {}
    exact = eigen.char_poly

    def recording(M):
        coeffs = exact(M)
        seen.setdefault(tuple(coeffs), None)
        return coeffs

    monkeypatch.setattr(eigen, "char_poly", recording)
    for family in ("commuting_points", "block_concentrated", "charge_one"):
        for k in range(1, 7):
            for r in (1, 2, 3):
                for seed in range(2):
                    try:
                        m = generate(GenSpec(k=k, r=r, seed=seed, family=family))
                    except InfeasibleSpec:
                        continue
                    canonical_reduction(m)
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


def test_roots_hard_cases():
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


def test_roots_beyond_the_float_range_and_partly_irrational():
    # coefficients too large for floats
    too_big = _expand([qi(10 ** 400), qi("1/3", -1)])
    assert roots_in_qi(too_big) == [(qi("1/3", -1), 1), (qi(10 ** 400), 1)]
    # one root in Q(i), an irreducible quadratic left over
    mixed = [ONE, qi(-1), qi(-2), qi(2)]  # (t - 1)(t^2 - 2)
    with pytest.raises(IrrationalSpectrum, match="2 of the 3 roots"):
        roots_in_qi(mixed)
    _assert_matches_oracle([too_big, mixed])


def _inert_prime_product(below):
    """The product of the primes p = 3 (mod 4) below ``below``."""
    primes = [p for p in range(3, below, 4)
              if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    return primes, prod(primes)


def test_roots_that_agree_modulo_every_small_inert_prime():
    """The two roots of each polynomial agree, or the roots are multiple,
    modulo every inert prime below 1200: none of those primes can split
    them, and each polynomial is still decided quickly."""
    primes, M = _inert_prime_product(1200)
    assert len(primes) == 100 and primes[-1] == 1187
    polys = [
        _expand([ZERO, qi(M)]),
        _expand([qi(1, -2), qi(1 + M, M - 2)]),
        _expand([qi("1/3", "2/5"), qi(f"{3 * M + 1}/3", "2/5")]),
        _expand([qi(M, M), qi(-M, -M), qi(2 * M)]),
        [ONE, ZERO, qi(-2 * M * M)],  # roots +-M sqrt(2)
        [ONE, qi(-M), qi(M * M, M * M)],  # roots M (1 - i) and M i
        [ONE, qi(-M), qi(0, M * M)],  # roots M (1 +- sqrt(1 - 4 i)) / 2
    ]
    for coeffs in polys:
        start = time.perf_counter()
        outcome = _outcome(roots_in_qi, coeffs)
        assert time.perf_counter() - start < 1.0
        assert outcome == _outcome(_oracle_roots, coeffs), coeffs
    assert roots_in_qi(polys[0]) == [(ZERO, 1), (qi(M), 1)]
    assert roots_in_qi(polys[5]) == [(qi(0, M), 1), (qi(M, -M), 1)]
    for irrational in (polys[4], polys[6]):
        with pytest.raises(IrrationalSpectrum):
            roots_in_qi(irrational)


def test_huge_root_beside_a_gaussian_rational_one():
    big = qi(10 ** 400, -3 * 10 ** 399 + 7)
    small = qi("-5/7", "2/9")
    for roots in ([big, small], [big, small, small], [-big, small, I]):
        coeffs = _expand(roots)
        want = sorted({z: roots.count(z) for z in roots}.items(),
                      key=lambda rm: rm[0].sort_key())
        assert roots_in_qi(coeffs) == want
        _assert_matches_oracle([coeffs])


def test_degree_ten_products_of_gaussian_rationals():
    r_ = rng(25)
    for _ in range(4):
        distinct = [qi(f"{r_.randint(-40, 40)}/{r_.randint(1, 12)}",
                       f"{r_.randint(-40, 40)}/{r_.randint(1, 12)}")
                    for _ in range(7)]
        roots = distinct + [r_.choice(distinct) for _ in range(3)]
        coeffs = _expand(roots)
        assert len(coeffs) == 11
        want = sorted({z: roots.count(z) for z in roots}.items(),
                      key=lambda rm: rm[0].sort_key())
        assert roots_in_qi(coeffs) == want
        _assert_matches_oracle([coeffs])


def test_irreducible_factor_with_huge_coefficients_beside_split_roots():
    """A factor over Q(i) without roots there, with coefficients far
    beyond the float range, times roots that do lie in Q(i)."""
    split = _expand([qi(2, 1), qi("-1/4"), qi(2, 1)])
    for tail in ([ONE, qi(3 * 10 ** 80), qi(7, 10 ** 90)],
                 [ONE, ZERO, qi(-(10 ** 120 + 1)), qi(2)],
                 [ONE, qi(-1), qi(-2 * 10 ** 60)]):
        coeffs = [sum((split[i] * tail[n - i] for i in range(len(split))
                       if 0 <= n - i < len(tail)), ZERO)
                  for n in range(len(split) + len(tail) - 1)]
        with pytest.raises(IrrationalSpectrum):
            roots_in_qi(coeffs)
        _assert_matches_oracle([coeffs, split])


def test_eigenvalues_matrix_level():
    assert eigenvalues(Matrix.diagonal([1, 1, 2])) == [(qi(1), 2), (qi(2), 1)]
    # rotation matrix [[0,-1],[1,0]]: eigenvalues -i, i
    R = Matrix.from_rows([[0, -1], [1, 0]])
    assert eigenvalues(R) == [(-I, 1), (I, 1)]
    with pytest.raises(IrrationalSpectrum):
        eigenvalues(Matrix.from_rows([[0, 2], [1, 0]]))


def _m(rows):
    """Matrix from rows of ints, "p/q" strings or (re, im) pairs."""
    return Matrix.from_rows([[qi(*x) if isinstance(x, tuple) else qi(x)
                              for x in row] for row in rows])


# The bases g below are pinned: the diagonal order (least joint eigenvalue
# first) and the first canonical joint eigenvector at each step fix them.

def test_commuting_reduce_examples():
    g, (t1, t2) = commuting_reduce([Matrix.diagonal([1, 2]),
                                    Matrix.diagonal([3, 4])])
    assert t1.is_upper_triangular() and t2.is_upper_triangular()
    assert sorted([(t1[j, j], t2[j, j]) for j in range(2)],
                  key=lambda p: p[0].sort_key()) == [(qi(1), qi(3)),
                                                     (qi(2), qi(4))]
    assert g == Matrix.identity(2)

    J = Matrix.from_rows([[0, 1], [0, 0]])
    g, (u1, u2) = commuting_reduce([J, Matrix.zeros(2, 2)])
    assert u1.is_upper_triangular() and u2.is_zero()
    assert u1[0, 0].is_zero() and u1[1, 1].is_zero()
    assert g == Matrix.identity(2)

    S = Matrix.from_rows([[0, 1], [1, 0]])
    g, (t,) = commuting_reduce([S])
    assert t.is_upper_triangular()
    assert {t[0, 0], t[1, 1]} == {qi(1), qi(-1)}
    gi = inverse(g)
    assert gi @ S @ g == t
    assert g == _m([[1, 0], [-1, 1]])


def test_commuting_reduce_computes_one_char_poly_per_form(monkeypatch):
    """The spectrum is read once, through a separating form: one
    characteristic polynomial per form tried, none per recursion level."""
    calls = []
    exact = eigen.char_poly

    def counting(M):
        calls.append(M.rows)
        return exact(M)

    monkeypatch.setattr(eigen, "char_poly", counting)
    m = generate(GenSpec(k=6, r=2, seed=0, family="commuting_points"))
    commuting_reduce([m.a1, m.a2])
    assert calls == [6]  # a1 has six distinct eigenvalues: s = 0 separates
    calls.clear()
    g = random_invertible(rng(30), 3)
    gi = inverse(g)
    commuting_reduce([gi @ Matrix.diagonal([0, 0, 1]) @ g,
                      gi @ Matrix.diagonal([1, 2, 3]) @ g])
    assert calls == [3, 3]  # a1 alone merges (0, 1) and (0, 2)


def test_commuting_reduce_rejects_noncommuting():
    A = Matrix.from_rows([[0, 1], [0, 0]])
    B = Matrix.from_rows([[0, 0], [1, 0]])
    with pytest.raises(NonCommuting):
        commuting_reduce([A, B])


PINNED_BASES = [
    [[1, 0], [("-103/857", "-104/857"), 1]],
    [[1]],
    [[1]],
    [[1, 0], [("19/37", "3/37"), 1]],
    [[1]],
    [[1, 0, 0, 0],
     [("-43842/83285", "10269/83285"), 1, 0, 0],
     [("6711/83285", "4053/83285"), ("-1286/2703", "-178/901"), 1, 0],
     [("-9129/83285", "-7077/83285"), ("-719/1802", "2117/5406"),
      ("9/10", "-31/30"), 1]],
    [[1, 0], [("138/373", "-195/373"), 1]],
    [[1, 0, 0], [0, 1, 0], [("4/13", "6/13"), ("-19/39", "-35/39"), 1]],
]


def test_commuting_reduce_random_conjugated_diagonals():
    r_ = rng(21)
    for pinned in PINNED_BASES:
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
        assert g == _m(pinned)


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


# -- joint spectra against sympy's characteristic polynomials -------------

def _qqi(x):
    from sympy import QQ, QQ_I

    return QQ_I(QQ(x.re.numerator, x.re.denominator),
                QQ(x.im.numerator, x.im.denominator))


def _assert_pairs_match_charpolys(m1, m2, pairs):
    """charpoly(m1 + s m2) = prod (t - mu1 - s mu2) for s = 0..k: both
    sides have degree k in s, so this fixes the multiset of pairs."""
    from sympy import QQ_I
    from sympy.polys.matrices import DomainMatrix

    k = m1.rows
    assert len(pairs) == k
    for s in range(k + 1):
        L = m1 + m2.scale(s)
        dm = DomainMatrix([[_qqi(L[i, j]) for j in range(k)]
                           for i in range(k)], (k, k), QQ_I)
        coeffs = [QQ_I.one]
        for mu1, mu2 in pairs:
            z = _qqi(mu1 + mu2 * s)
            coeffs = [a - z * b for a, b in
                      zip(coeffs + [QQ_I.zero], [QQ_I.zero] + coeffs)]
        assert dm.charpoly() == coeffs, (s, m1, m2)


def _seeded_blocks(monkeypatch):
    """The commuting blocks canonical_reduction splits off on the seeded
    plane families with k <= 6."""
    import monadcalc.p2 as p2

    blocks = []
    exact = p2.joint_spectrum

    def recording(mats, approx=False):
        blocks.append(tuple(mats))
        return exact(mats, approx)

    monkeypatch.setattr(p2, "joint_spectrum", recording)
    for family in ("commuting_points", "block_concentrated", "charge_one"):
        for k in range(1, 7):
            for r in (1, 2, 3):
                try:
                    m = generate(GenSpec(k=k, r=r, seed=k + r, family=family))
                except InfeasibleSpec:
                    continue
                canonical_reduction(m)
    monkeypatch.undo()
    return blocks


def _random_commuting_pairs(count, seed):
    """(p(M), q(M)) for random M with split spectrum: conjugated upper
    triangular matrices, often with repeated (and defective) eigenvalues.
    Half the time p merges M's two eigenvalues, so p(M) alone does not
    separate the joint spectrum."""
    r_ = rng(seed)
    out = []
    for _ in range(count):
        n = r_.randint(1, 5)
        diag = [qi(r_.randint(-2, 2), r_.randint(-1, 1)) for _ in range(2)]
        T = Matrix(n, n, [r_.choice(diag) if a == b else
                          qi(r_.randint(-2, 2)) if b > a else ZERO
                          for a in range(n) for b in range(n)])
        g = random_invertible(r_, n)
        M = inverse(g) @ T @ g
        eye = Matrix.identity(n)
        alpha = (-(diag[0] + diag[1]) if r_.random() < 0.5
                 else qi(r_.randint(-2, 2)))
        out.append((M @ M + M.scale(alpha) + eye.scale(r_.randint(-2, 2)),
                    M.scale(r_.randint(-2, 2)) + eye.scale(r_.randint(-1, 1))))
    return out


def _max_float_error(exact, approx):
    """Largest distance from an exact pair to its nearest unused float pair."""
    rest, worst = list(approx), 0.0
    for p1, p2 in exact:
        z1, z2 = complex(p1), complex(p2)
        errs = [max(abs(a - z1), abs(b - z2)) for a, b in rest]
        j = min(range(len(rest)), key=errs.__getitem__)
        worst = max(worst, errs[j])
        rest.pop(j)
    return worst


def test_joint_spectra_match_sympy_charpolys(monkeypatch):
    blocks = _seeded_blocks(monkeypatch)
    assert max(m1.rows for m1, _ in blocks) == 6
    for m1, m2 in blocks + _random_commuting_pairs(60, seed=31):
        _assert_pairs_match_charpolys(m1, m2, joint_eigenvalue_pairs(m1, m2))


def test_float_joint_spectra_match_exact(monkeypatch):
    """Defective eigenvalues too: each is one simple root of an exact
    square-free factor, so its error does not grow like eps^(1/m)."""
    blocks = _seeded_blocks(monkeypatch)
    for m1, m2 in blocks + _random_commuting_pairs(60, seed=32):
        exact = joint_eigenvalue_pairs(m1, m2)
        approx = approx_joint_eigenvalue_pairs(m1, m2)
        assert len(approx) == len(exact)
        scale = max([1.0] + [abs(complex(x)) for p in exact for x in p])
        assert _max_float_error(exact, approx) <= 1e-10 * scale


def test_approx_pairs_of_a_defective_irrational_spectrum():
    # +-sqrt(2), each in a 2 x 2 Jordan block of a1; a2 is nilpotent; a
    # random basis hides the block structure
    g = random_invertible(rng(40), 4)
    gi = inverse(g)
    a1, a2 = (gi @ _m(rows) @ g for rows in (
        [[0, 2, 1, 0], [1, 0, 0, 1], [0, 0, 0, 2], [0, 0, 1, 0]],
        [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]))
    assert a1 @ a2 == a2 @ a1
    assert char_poly(a1) == [ONE, ZERO, qi(-4), ZERO, qi(4)]  # (t^2 - 2)^2
    assert not (a1 @ a1 - Matrix.identity(4).scale(2)).is_zero()
    with pytest.raises(IrrationalSpectrum):
        joint_eigenvalue_pairs(a1, a2)
    r2 = 2 ** 0.5
    want = [(-r2, 0), (-r2, 0), (r2, 0), (r2, 0)]
    assert _max_float_error(want, approx_joint_eigenvalue_pairs(a1, a2)) <= 1e-12


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
