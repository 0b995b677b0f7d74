"""Exact spectra of commuting families: characteristic polynomials,
eigenvalues in Q(i), joint spectra and simultaneous triangularization.

Roots in Q(i) are found without factorization.  Substituting t = s/D,
with D the common denominator of the coefficients, turns a monic f into
a monic F over Z[i]; since Z[i] is integrally closed, the Q(i)-roots of
F are Gaussian integers.  numpy's roots of the exact square-free part
F / gcd(F, F') are rounded to Gaussian integers, and a candidate counts
only once exact synthetic division leaves no remainder, which also gives
its multiplicity: no false root can be returned.  When the multiplicities
found fall short of deg f, the polynomial goes to sympy's factorization
over QQ_I, imported only then; that exact path alone raises
IrrationalSpectrum.

Joint spectra are read through one separating form l = a1 + s a2 + ...,
checked exactly: each joint eigenvalue is a rational function, with
trace coefficients, of a root of a square-free factor S_j of det(t - l)
(Rouillier's rational univariate representation).  The exact and the
approximate mode differ only in those roots: in Q(i), or numpy's complex
roots.  numpy and sympy are imported inside functions only.
"""

from __future__ import annotations

from functools import reduce
from math import gcd, isfinite, lcm
from typing import List, Sequence, Tuple

from .closure import is_nilpotent
from .errors import (DimensionMismatch, FloatOverflow, IrrationalSpectrum,
                     NonCommuting, NonSquareMatrix, check_invariant)
from .field import ONE, QI, ZERO, Rat
from .matrix import (Gauss, Matrix, Subspace, basis_extension, block,
                     inverse, kernel_basis, solve, vstack)


def char_poly(M: Matrix) -> List[QI]:
    """Coefficients [1, c1, ..., ck] of det(t*I - M) (Faddeev-LeVerrier)."""
    if not M.is_square():
        raise NonSquareMatrix("characteristic polynomial needs a square matrix")
    k = M.rows
    coeffs = [ONE]
    N = Matrix.identity(k)
    for i in range(1, k + 1):
        MN = M @ N
        c = -(MN.trace() / QI(i))
        coeffs.append(c)
        N = MN + Matrix.identity(k).scale(c)
    return coeffs


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
    g = gcd(*(x for a in A for x in a))
    return [(a // g, b // g) for a, b in A] if g > 1 else A


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


def _candidates(S: List[Gauss]) -> List[Gauss]:
    """Gaussian integers nearest to the roots of the square-free S: exact
    for degree 1, rounded numpy roots otherwise; [] when S has too large
    coefficients for floats or numpy finds no finite roots."""
    if len(S) <= 2:
        return [(-a, -b) for a, b in S[1:]]
    try:
        zs = _complex_roots([complex(a, b) for a, b in S])
    except (OverflowError, ValueError):  # numpy's LinAlgError is a ValueError
        return []
    return [(round(z.real), round(z.imag)) for z in zs
            if isfinite(z.real) and isfinite(z.imag)]


def _sympy_roots(F: List[Gauss], D: int) -> List[Tuple[QI, int]]:
    """Exact fallback: the roots of F over QQ_I (sympy factorization),
    divided by D."""
    from sympy import QQ_I, Poly, Symbol

    poly = Poly.from_list([QQ_I(a, b) for a, b in F], Symbol("t"),
                          domain=QQ_I)
    found = []
    for fac, mult in poly.factor_list()[1]:
        if fac.degree() > 1:
            raise IrrationalSpectrum(
                f"irreducible factor of degree {fac.degree()} over Q(i)")
        lead, const = fac.rep.to_list()
        root = QQ_I.quo(-const, lead * D)
        found.append((QI(root.x, root.y), mult))
    return found


def _over_gauss(coeffs: Sequence[QI]) -> Tuple[List[Gauss], int]:
    """(F, D) for a monic f over Q(i): t = s / D turns f into the monic F
    over Z[i], whose Q(i)-roots are Gaussian integers, D times those of f."""
    D = lcm(*(int(q.denominator) for c in coeffs for q in (c.re, c.im)))
    F, scale = [], 1
    for c in coeffs:
        F.append((int(c.re * scale), int(c.im * scale)))
        scale *= D
    return F, D


def roots_in_qi(coeffs: Sequence[QI]) -> List[Tuple[QI, int]]:
    """Roots (with multiplicity) of a monic polynomial, all in Q(i).

    Raises IrrationalSpectrum when the polynomial does not split over
    Q(i).  Output is sorted by the deterministic field order.
    """
    if coeffs and coeffs[0] != ONE:
        coeffs = [c / coeffs[0] for c in coeffs]
    F, D = _over_gauss(coeffs)
    found, missed = [], False
    for S, j in _yun(F)[1]:  # a root of S_j has multiplicity j
        for r in _candidates(S):
            q, rest = _divide_monic(S, [(1, 0), (-r[0], -r[1])])
            if not rest:  # r is a root: exact division by s - r
                S = q
                found.append((QI(Rat(r[0], D), Rat(r[1], D)), j))
        missed = missed or len(S) > 1
    if missed:  # some root was missed: decide exactly
        found = _sympy_roots(F, D)
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
    n = A.rows
    return sum((A[i, j] * B[j, i] for i in range(n) for j in range(n)), ZERO)


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
        S = _over_qi(S, D)
        zs = ([-S[1]] if len(S) == 2 else _complex_roots(S) if approx
              else [z for z, _ in roots_in_qi(S)])
        roots += [(complex(z) if approx else z, j) for z in zs]
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
    return [tuple(_horner(g, z) / _horner(W, z) for g in gs)
            for z, j in roots for _ in range(j)]


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
    for i, A in enumerate(mats):
        for B in mats[i + 1:]:
            if not (A @ B - B @ A).is_zero():
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
    with multiplicity in the order of :func:`joint_spectrum`.
    """
    mats = list(mats)
    spectrum = joint_spectrum(mats)
    k = len(spectrum)
    g, ms = Matrix.identity(k), mats
    # split off the least remaining joint eigenvalue: the first canonical
    # basis vector of its joint eigenspace starts the next basis
    for t, values in enumerate(spectrum[:-1]):
        n, eye = k - t, Matrix.identity(k - t)
        joint = kernel_basis(vstack([M - eye.scale(lam)
                                     for M, lam in zip(ms, values)]))
        P = basis_extension(Subspace(n, joint.basis.col_matrix(0)))
        Pinv = inverse(P)
        check_invariant(Pinv is not None, "basis extension is singular")
        ms = [Matrix(n - 1, n - 1, [C[i, j] for i in range(1, n)
                                    for j in range(1, n)])
              for C in (Pinv @ M @ P for M in ms)]
        g = g @ block([[Matrix.identity(t), Matrix.zeros(t, n)],
                       [Matrix.zeros(n, t), P]])
    ginv = inverse(g)
    check_invariant(ginv is not None, "triangularizing basis is singular")
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
