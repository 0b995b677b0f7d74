"""Exact spectra of commuting families: characteristic polynomials,
eigenvalues in Q(i), joint spectra and simultaneous triangularization.

Characteristic polynomials are division-free: Berkowitz's algorithm runs
on the Gaussian-integer numerators of a matrix over one common
denominator D, and coefficient i is divided by D^i once, at the end.

Roots in Q(i) are found with Gaussian-integer arithmetic alone.
Substituting t = s/D, with D the common denominator of the coefficients,
turns a monic f into a monic F over Z[i]; since Z[i] is integrally closed,
the Q(i)-roots of F are Gaussian integers.  Each square-free factor of F
(Yun) is solved modulo an inert prime p = 3 (mod 4), where Z[i]/(p) is a
field (Cantor-Zassenhaus splitting), its roots there are Newton-lifted
past the root bound, and a lift counts only once exact division leaves no
remainder.  A factor with fewer such roots than its degree raises
IrrationalSpectrum.

Joint spectra are read through one separating form l = a1 + s a2 + ...,
checked exactly: each joint eigenvalue is a rational function, with
trace coefficients, of a root of a square-free factor S_j of det(t - l)
(Rouillier's rational univariate representation).  The exact and the
approximate mode differ only in those roots: in Q(i), or numpy's complex
roots.  numpy is imported by the approximate mode only.
"""

from __future__ import annotations

from functools import reduce
from itertools import count
from math import isqrt
from typing import List, Sequence, Tuple

from .closure import is_nilpotent
from .errors import (DimensionMismatch, FloatOverflow, IrrationalSpectrum,
                     NonCommuting, NonSquareMatrix, check_invariant)
from .field import ONE, QI, ZERO, Rat
from .matrix import (Gauss, Matrix, Subspace, _berkowitz, _clear, _invariant_split,
                     _primitive, _ZiMatrix, block, kernel_basis, vstack)


def char_poly(M: Matrix) -> List[QI]:
    """Coefficients [1, c1, ..., ck] of det(t*I - M).

    Berkowitz's division-free algorithm (``matrix._berkowitz``) runs on
    the Gaussian-integer numerators N of M = N / D over one common
    denominator D.  Coefficient i of det(t - N) is D^i times c_i, and is
    divided once, at the end.
    """
    if not M.is_square():
        raise NonSquareMatrix("characteristic polynomial needs a square matrix")
    Z = _ZiMatrix.of(M)
    return _over_qi(_berkowitz(Z), Z.den)


def _gmul(x: Gauss, y: Gauss) -> Gauss:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gsub(x: Gauss, y: Gauss) -> Gauss:
    return (x[0] - y[0], x[1] - y[1])


def _strip(F: List[Gauss]) -> List[Gauss]:
    """Drop leading zero coefficients; the zero polynomial is []."""
    j = 0
    while j < len(F) and F[j] == (0, 0):
        j += 1
    return F[j:]


def _pseudo_remainder(A: List[Gauss], B: List[Gauss]) -> List[Gauss]:
    """A Z[i]-multiple of (A mod B), divided by the integer content."""
    lb = B[0]
    while len(A) >= len(B):
        la = A[0]
        A = _strip([_gsub(_gmul(lb, a), _gmul(la, b))
                    for a, b in zip(A[1:], B[1:])]
                   + [_gmul(lb, a) for a in A[len(B):]])
    return _primitive(A)


def _monic_gcd(A: List[Gauss], B: List[Gauss]) -> List[Gauss]:
    """The monic gcd over Q(i) of a monic A in Z[i][s] and B; it lies in
    Z[i][s] because its roots are integral over Z[i]."""
    while B:
        A, B = B, _pseudo_remainder(A, B)
    lead = A[0]
    norm = lead[0] * lead[0] + lead[1] * lead[1]
    monic = [_gmul(a, (lead[0], -lead[1])) for a in A]
    check_invariant(all(x % norm == 0 for a in monic for x in a),
                    "gcd of monic polynomials over Z[i] is not integral")
    return [(a // norm, b // norm) for a, b in monic]


def _derivative(F: List[Gauss]) -> List[Gauss]:
    return [_gmul(c, (len(F) - 1 - j, 0)) for j, c in enumerate(F[:-1])]


def _yun(F: List[Gauss]):
    """Yun's square-free decomposition of a monic F over Z[i]: F / G and
    F' / G for G = gcd(F, F'), and the pairs (S_j, j) of nonconstant,
    monic, square-free and pairwise coprime S_j with F = prod S_j^j."""
    dF = _derivative(F)
    a = _monic_gcd(F, dF)
    b, c = _divide_monic(F, a)[0], _divide_monic(dF, a)[0]
    squarefree, parts, j = (b, c), [], 1
    while len(b) > 1:
        d = _strip([_gsub(x, y) for x, y in zip(c, _derivative(b))])
        a = _monic_gcd(b, d)
        if len(a) > 1:
            parts.append((a, j))
        b, c, j = _divide_monic(b, a)[0], _divide_monic(d, a)[0], j + 1
    return squarefree, parts


def _divide_monic(F: List[Gauss], G: List[Gauss]):
    """Quotient and remainder of F by a monic G (long division over Z[i])."""
    F, Q = list(F), []
    for j in range(len(F) - len(G) + 1):
        q = F[j]
        Q.append(q)
        for i in range(1, len(G)):
            F[j + i] = _gsub(F[j + i], _gmul(q, G[i]))
    return Q, _strip(F[len(Q):])


def _reduce_mod(F: List[Gauss], m: int) -> List[Gauss]:
    return _strip([(a % m, b % m) for a, b in F])


def _at(F: List[Gauss], z: Gauss, m: int) -> Gauss:
    """F(z) modulo m (Horner)."""
    acc = (0, 0)
    for a, b in F:
        x, y = _gmul(acc, z)
        acc = ((x + a) % m, (y + b) % m)
    return acc


def _inverse_mod(x: Gauss, m: int) -> Gauss:
    """1 / x modulo a power m of an inert prime that does not divide x."""
    n = pow(x[0] * x[0] + x[1] * x[1], -1, m)
    return (x[0] * n % m, -x[1] * n % m)


def _times_mod(A: List[Gauss], B: List[Gauss], G: List[Gauss], p: int):
    """A B modulo a monic G and p."""
    prod = [(0, 0)] * (len(A) + len(B) - 1)
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            x, y = _gmul(a, b)
            prod[i + j] = (prod[i + j][0] + x, prod[i + j][1] + y)
    return _reduce_mod(_divide_monic(prod, G)[1], p)


def _power_mod(A: List[Gauss], e: int, G: List[Gauss], p: int) -> List[Gauss]:
    """A^e modulo a monic G and p."""
    if e == 0:
        return [(1, 0)]
    R = _power_mod(A, e // 2, G, p)
    R = _times_mod(R, R, G, p)
    return _times_mod(R, A, G, p) if e % 2 else R


def _gcd_mod(A: List[Gauss], B: List[Gauss], p: int) -> List[Gauss]:
    """The monic gcd modulo p of a monic A and B."""
    while B:
        B = _reduce_mod([_gmul(_inverse_mod(B[0], p), b) for b in B], p)
        A, B = B, _reduce_mod(_divide_monic(A, B)[1], p)
    return A


def _split(G: List[Gauss], p: int) -> List[Gauss]:
    """The roots modulo p of a monic G over Z[i] that is a product of
    distinct linear factors modulo p."""
    if len(G) <= 2:
        return [(-a % p, -b % p) for a, b in G[1:]]
    # H = (z + t)^((p^2 - 1) / 2) is 1 at the roots r with r + t a nonzero
    # square; for any two roots, some t in Z[i]/(p) tells them apart.  G has
    # two roots or more, so H is not 0 modulo G.
    for j in range(p * p):
        H = _power_mod([(1, 0), (j % p, j // p)], (p * p - 1) // 2, G, p)
        D = _gcd_mod(G, _reduce_mod(H[:-1] + [_gsub(H[-1], (1, 0))], p), p)
        if 1 < len(D) < len(G):
            rest = _reduce_mod(_divide_monic(G, D)[0], p)
            return _split(D, p) + _split(rest, p)


def _gauss_roots(S: List[Gauss]) -> List[Gauss]:
    """The deg S roots of a monic square-free S over Z[i], all Gaussian
    integers, else IrrationalSpectrum."""
    dS = _derivative(S)
    # the first inert prime p = 3 (mod 4) (Z[i]/(p) is then a field) at
    # which the roots of S modulo p, those of gcd(S, z^(p^2) - z), are
    # simple: each then lifts uniquely
    for p in (p for p in count(3, 4)
              if all(p % d for d in range(3, isqrt(p) + 1, 2))):
        X = [(0, 0), (0, 0)] + _power_mod([(1, 0), (0, 0)], p * p, S, p)
        X[-2] = _gsub(X[-2], (1, 0))
        zs = _split(_gcd_mod(S, _reduce_mod(X, p), p), p)
        if all(_at(dS, z, p) != (0, 0) for z in zs):
            break
    # both coordinates of a root are at most 1 + max |coefficient| in size
    bound = 2 * (1 + max(abs(a) + abs(b) for a, b in S))
    roots = []
    for z in zs:
        m = p
        while m <= bound:  # a root modulo m: Newton makes it one mod m^2
            m *= m
            step = _gmul(_at(S, z, m), _inverse_mod(_at(dS, z, m), m))
            z = ((z[0] - step[0]) % m, (z[1] - step[1]) % m)
        r = tuple(x - m if 2 * x > m else x for x in z)
        if not _divide_monic(S, [(1, 0), (-r[0], -r[1])])[1]:
            roots.append(r)
    if len(roots) < len(S) - 1:
        raise IrrationalSpectrum(
            f"{len(S) - 1 - len(roots)} of the {len(S) - 1} roots of a "
            "square-free factor are not in Q(i)")
    return roots


def _over_gauss(coeffs: Sequence[QI]) -> Tuple[List[Gauss], int]:
    """(F, D) for a monic f over Q(i): t = s / D turns f into the monic F
    over Z[i], whose Q(i)-roots are Gaussian integers, D times those of f:
    coefficient m of F is D^m c_m, and ``_clear`` gives D c_m."""
    N, D = _clear(coeffs)
    return [(1, 0)] + [(a * D ** m, b * D ** m)
                       for m, (a, b) in enumerate(N[1:])], D


def roots_in_qi(coeffs: Sequence[QI]) -> List[Tuple[QI, int]]:
    """Roots (with multiplicity) of a monic polynomial, all in Q(i).

    Raises IrrationalSpectrum when the polynomial does not split over
    Q(i).  Output is sorted by the deterministic field order.  Raises
    ValueError for an empty list or a zero leading coefficient.
    """
    if not coeffs:
        raise ValueError("a polynomial needs at least one coefficient")
    if coeffs[0] == 0:
        raise ValueError("the leading coefficient is zero")
    if coeffs[0] != ONE:
        coeffs = [c / coeffs[0] for c in coeffs]
    F, D = _over_gauss(coeffs)
    found = [(QI(Rat(a, D), Rat(b, D)), j)
             for S, j in _yun(F)[1]  # a root of S_j has multiplicity j
             for a, b in _gauss_roots(S)]
    found.sort(key=lambda rm: rm[0].sort_key())
    return found


def eigenvalues(M: Matrix) -> List[Tuple[QI, int]]:
    return roots_in_qi(char_poly(M))


def _joint_key(values):
    """Sort key of a joint eigenvalue: exact field order, or (re, im)."""
    return tuple(x.sort_key() if isinstance(x, QI) else (x.real, x.imag)
                 for x in values)


def _horner(coeffs, z):
    return reduce(lambda acc, c: acc * z + c, coeffs)


def _combine(coeffs: Sequence[QI], powers: Sequence[Matrix]) -> Matrix:
    """p(L) for p = sum c_m t^(d-1-m), given the powers I, L, ..., L^(d-1)."""
    n = powers[0].rows
    return sum((P.scale(c) for c, P in zip(reversed(coeffs), powers)),
               Matrix.zeros(n, n))


def _trace_of_product(A: Matrix, B: Matrix) -> QI:
    return sum((x * y for x, y in zip(A.entries, B.transpose().entries)), ZERO)


def _complex_roots(coeffs) -> List[complex]:
    import numpy as np

    with np.errstate(all="ignore"):
        return [complex(z) for z in np.roots([complex(c) for c in coeffs])]


def _over_qi(P: List[Gauss], D: int) -> List[QI]:
    """The monic polynomial over Q(i) whose Z[i]-form (t = s / D) is P."""
    return [QI(Rat(a, D ** m), Rat(b, D ** m)) for m, (a, b) in enumerate(P)]


def _read_through(mats: List[Matrix], ell: Matrix, approx: bool):
    """The joint eigenvalues of the family read through the form ell, or
    None when ell does not separate them."""
    F, D = _over_gauss(char_poly(ell))
    squarefree, parts = _yun(F)
    roots = []
    for S, j in parts:  # a root of S_j has multiplicity j
        if approx:
            S = _over_qi(S, D)
            zs = [complex(-S[1])] if len(S) == 2 else _complex_roots(S)
        else:
            zs = [QI(Rat(a, D), Rat(b, D)) for a, b in _gauss_roots(S)]
        roots += [(z, j) for z in zs]
    # S = chi / gcd(chi, chi') is square-free and W = chi' / gcd has
    # W(z) = m S'(z) at a root z of multiplicity m.  g_i, with n-th
    # coefficient sum_{m <= n} S_m tr(a_i ell^(n - m)), has g_i(z) =
    # tr(a_i on the generalized z-eigenspace) S'(z): a_i's one eigenvalue
    # there is g_i(z) / W(z) once ell separates.
    S, W = (_over_qi(P, D) for P in squarefree)
    powers = [Matrix.identity(ell.rows)]
    while len(powers) < len(W):
        powers.append(powers[-1] @ ell)
    gs = [[sum((S[m] * tr[n - m] for m in range(n + 1)), ZERO)
           for n in range(len(W))]
          for tr in ([_trace_of_product(A, P) for P in powers] for A in mats)]
    # ell has one eigenvalue on each of its generalized eigenspaces, so the
    # form separates iff every later member has one there too:
    # W(ell) a_i - g_i(ell) is then nilpotent
    W_at = _combine(W, powers)
    if not all(is_nilpotent(A @ W_at - _combine(g, powers))
               for A, g in zip(mats[1:], gs[1:])):
        return None
    if approx:
        W, *gs = [[complex(c) for c in p] for p in [W] + gs]
    found = []
    for z, j in roots:  # one tuple, listed j times
        w = _horner(W, z)
        found += [tuple(_horner(g, z) / w for g in gs)] * j
    return found


def joint_spectrum(mats: Sequence[Matrix],
                   approx: bool = False) -> List[tuple]:
    """Joint eigenvalues (mu_1, ..., mu_n) of a commuting family, with
    multiplicity, sorted: in Q(i) (else IrrationalSpectrum) or, with
    ``approx``, complex.  NonCommuting unless the family commutes exactly.
    """
    mats = list(mats)
    if not mats:
        raise DimensionMismatch("empty matrix family")
    k = mats[0].rows
    for M in mats:
        if not M.is_square() or M.rows != k:
            raise DimensionMismatch("family members must be square of equal size")
    # on the integer form, whose equal values have equal forms
    forms = [_ZiMatrix.of(M) for M in mats]
    for i, A in enumerate(forms):
        for B in forms[i + 1:]:
            if A @ B != B @ A:
                raise NonCommuting("matrices do not pairwise commute")
    # distinct joint eigenvalues collide under l = sum s^i a_i for at most
    # n - 1 values of s each
    for s in range((len(mats) - 1) * k * (k - 1) // 2 + 1):
        ell = sum((M.scale(s ** i) for i, M in enumerate(mats[1:], 1)),
                  mats[0])
        try:
            found = _read_through(mats, ell, approx)
        except OverflowError as exc:  # complex() of a huge exact value
            raise FloatOverflow(str(exc)) from None
        if found is not None:
            return sorted(found, key=_joint_key)
    check_invariant(False, "no linear form separates a commuting family")


def commuting_reduce(mats: Sequence[Matrix]) -> Tuple[Matrix, List[Matrix]]:
    """Simultaneous upper triangularization of a commuting family.

    Returns (g, [T1, ..., Ts]) with g invertible and Ti = g^-1 @ Mi @ g
    exactly upper triangular.  The diagonal lists the joint eigenvalues
    with multiplicity in the order of :func:`joint_spectrum`.  Each step
    is one ``matrix._invariant_split``, whose P and P^-1 extend g and g^-1.
    """
    mats = list(mats)
    spectrum = joint_spectrum(mats)
    g = ginv = Matrix.identity(len(spectrum))
    forms = [_ZiMatrix.of(M) for M in mats]
    # split off the least remaining joint eigenvalue: the first canonical
    # basis vector of its joint eigenspace starts the next basis
    for t, values in enumerate(spectrum[:-1]):
        n = forms[0].rows
        v = kernel_basis(vstack([Z.matrix() - Matrix.identity(n).scale(lam)
                                 for Z, lam in zip(forms, values)])).basis.col_matrix(0)
        P, Pinv, _, forms = _invariant_split(forms, Subspace(n, v))
        # g <- g diag(I_t, P) and g^-1 <- diag(I_t, P^-1) g^-1
        corner, right, below = Matrix.identity(t), Matrix.zeros(t, n), Matrix.zeros(n, t)
        g = g @ block([[corner, right], [below, P.matrix()]])
        ginv = block([[corner, right], [below, Pinv.matrix()]]) @ ginv
    tris = [ginv @ M @ g for M in mats]
    check_invariant(all(T.is_upper_triangular() for T in tris),
                    "reduced family is not upper triangular")
    return g, tris


def joint_eigenvalue_pairs(m1: Matrix, m2: Matrix) -> List[Tuple[QI, QI]]:
    """The exact :func:`joint_spectrum` of a commuting pair."""
    return joint_spectrum([m1, m2])


def approx_joint_eigenvalue_pairs(m1: Matrix,
                                  m2: Matrix) -> List[Tuple[complex, complex]]:
    """The complex :func:`joint_spectrum` of a commuting pair."""
    return joint_spectrum([m1, m2], approx=True)
