"""Exact spectra of commuting families: characteristic polynomials,
eigenvalues in Q(i), and simultaneous triangularization.

Roots in Q(i) are found without factorization.  Substituting t = s/D,
with D the common denominator of the coefficients, turns a monic f into
a monic F over Z[i]; since Z[i] is integrally closed, the Q(i)-roots of
F are Gaussian integers.  numpy's roots of the exact square-free part
F / gcd(F, F') are rounded to Gaussian integers, and a candidate counts
only once exact synthetic division leaves no remainder, which also gives
its multiplicity: no false root can be returned.  When the multiplicities
found fall short of deg f, the polynomial goes to sympy's factorization
over QQ_I, imported only then; that exact path alone raises
IrrationalSpectrum.  A floating-point fallback (Schur form) is provided
for callers that accept approximate eigenvalue pairs.  numpy, scipy and
sympy are imported inside functions, never when the package loads.
"""

from __future__ import annotations

from math import gcd, isfinite, lcm
from typing import List, Sequence, Tuple

from .errors import (DimensionMismatch, IrrationalSpectrum, NonCommuting,
                     NonSquareMatrix, check_invariant)
from .field import ONE, QI, ZERO, Rat
from .matrix import Matrix, hstack, inverse, kernel_basis, solve


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


Gauss = Tuple[int, int]  # a + b i in Z[i]


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


def _divide_monic(F: List[Gauss], G: List[Gauss]) -> List[Gauss]:
    """Quotient of F by a monic divisor G (long division over Z[i])."""
    F, Q = list(F), []
    for j in range(len(F) - len(G) + 1):
        q = F[j]
        Q.append(q)
        for i in range(1, len(G)):
            F[j + i] = _gsub(F[j + i], _gmul(q, G[i]))
    return Q


def _deflate(F: List[Gauss], r: Gauss):
    """F / (s - r) when r is a root of F (synthetic division), else None."""
    acc, out = (0, 0), []
    for c in F:
        acc = (c[0] + r[0] * acc[0] - r[1] * acc[1],
               c[1] + r[0] * acc[1] + r[1] * acc[0])
        out.append(acc)
    return out[:-1] if acc == (0, 0) else None


def _candidates(S: List[Gauss]) -> List[Gauss]:
    """Gaussian integers nearest to the roots of the square-free S: exact
    for degree 1, rounded numpy roots otherwise; [] when S has too large
    coefficients for floats or numpy finds no finite roots."""
    if len(S) <= 2:
        return [(-a, -b) for a, b in S[1:]]
    import numpy as np

    try:
        floats = [complex(a, b) for a, b in S]
    except OverflowError:
        return []
    with np.errstate(all="ignore"):
        try:
            zs = [complex(z) for z in np.roots(floats)]
        except np.linalg.LinAlgError:
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


def roots_in_qi(coeffs: Sequence[QI]) -> List[Tuple[QI, int]]:
    """Roots (with multiplicity) of a monic polynomial, all in Q(i).

    Raises IrrationalSpectrum when the polynomial does not split over
    Q(i).  Output is sorted by the deterministic field order.
    """
    if coeffs and coeffs[0] != ONE:
        coeffs = [c / coeffs[0] for c in coeffs]
    # t = s / D turns f into a monic F over Z[i]: its Q(i)-roots are
    # Gaussian integers, D times those of f.
    D = lcm(*(int(q.denominator) for c in coeffs for q in (c.re, c.im)))
    F, scale = [], 1
    for c in coeffs:
        F.append((int(c.re * scale), int(c.im * scale)))
        scale *= D
    dF = [_gmul(c, (len(F) - 1 - j, 0)) for j, c in enumerate(F[:-1])]
    G = _monic_gcd(F, dF) if dF else [(1, 0)]
    rest, found = F, []
    for r in _candidates(_divide_monic(F, G)):
        mult, q = 0, _deflate(rest, r)
        while q is not None:
            mult, rest, q = mult + 1, q, _deflate(q, r)
        if mult:
            found.append((QI(Rat(r[0], D), Rat(r[1], D)), mult))
    if len(rest) > 1:  # some root was missed: decide exactly
        found = _sympy_roots(F, D)
    found.sort(key=lambda rm: rm[0].sort_key())
    return found


def eigenvalues(M: Matrix) -> List[Tuple[QI, int]]:
    return roots_in_qi(char_poly(M))


def _check_commuting(mats: Sequence[Matrix]):
    for i, A in enumerate(mats):
        for B in mats[i + 1:]:
            if not (A @ B - B @ A).is_zero():
                raise NonCommuting("matrices do not pairwise commute")


def _common_eigenvector(mats: Sequence[Matrix], k: int) -> Matrix:
    """One exact common eigenvector of a commuting family (k >= 1)."""
    E = Matrix.identity(k)  # columns: basis of the current joint subspace
    for M in mats:
        ME = M @ E
        X = solve(E, ME)  # restriction of M to span(E), valid by invariance
        check_invariant(X is not None, "joint subspace is not invariant")
        lam = eigenvalues(X)[0][0]
        ker = kernel_basis(X - Matrix.identity(X.rows).scale(lam))
        E = E @ ker.basis
    return E.col_matrix(0)


def _extend_to_basis(v: Matrix) -> Matrix:
    """Invertible matrix whose first column is v (unit pivot convention)."""
    k = v.rows
    pivot = next(i for i in range(k) if not v[i, 0].is_zero())
    cols = [v] + [Matrix.column([ONE if i == j else ZERO for i in range(k)])
                  for j in range(k) if j != pivot]
    return hstack(cols)


def commuting_reduce(mats: Sequence[Matrix]) -> Tuple[Matrix, List[Matrix]]:
    """Simultaneous upper triangularization of a commuting family.

    Returns (g, [T1, ..., Ts]) with g invertible and Ti = g^-1 @ Mi @ g
    exactly upper triangular.  The diagonal of Ti lists the joint
    eigenvalues with multiplicity, in a deterministic order.
    """
    mats = list(mats)
    if not mats:
        raise DimensionMismatch("empty matrix family")
    k = mats[0].rows
    for M in mats:
        if not M.is_square() or M.rows != k:
            raise DimensionMismatch("family members must be square of equal size")
    _check_commuting(mats)

    def recurse(ms: List[Matrix], n: int) -> Matrix:
        if n <= 1:
            return Matrix.identity(n)
        v = _common_eigenvector(ms, n)
        # Normalize on the leading pivot for determinism.
        pivot = next(i for i in range(n) if not v[i, 0].is_zero())
        v = v.scale(v[pivot, 0].inverse())
        P = _extend_to_basis(v)
        Pinv = inverse(P)
        check_invariant(Pinv is not None, "basis extension is singular")
        conj = [Pinv @ M @ P for M in ms]
        subs = [Matrix(n - 1, n - 1,
                       [M[i, j] for i in range(1, n) for j in range(1, n)])
                for M in conj]
        g_sub = recurse(subs, n - 1)
        pad = Matrix(n, n,
                     [ONE if (i == 0 and j == 0) else
                      (g_sub[i - 1, j - 1] if i > 0 and j > 0 else ZERO)
                      for i in range(n) for j in range(n)])
        return P @ pad

    g = recurse(mats, k)
    ginv = inverse(g)
    check_invariant(ginv is not None, "triangularizing basis is singular")
    tris = [ginv @ M @ g for M in mats]
    check_invariant(all(T.is_upper_triangular() for T in tris),
                    "reduced family is not upper triangular")
    return g, tris


def joint_eigenvalue_pairs(m1: Matrix, m2: Matrix) -> List[Tuple[QI, QI]]:
    """Joint eigenvalue pairs of two commuting matrices, with multiplicity."""
    if m1.rows == 0:
        return []
    _, (t1, t2) = commuting_reduce([m1, m2])
    pairs = [(t1[j, j], t2[j, j]) for j in range(m1.rows)]
    pairs.sort(key=lambda p: (p[0].sort_key(), p[1].sort_key()))
    return pairs


def approx_joint_eigenvalue_pairs(m1: Matrix, m2: Matrix,
                                  tol: float = 1e-9) -> List[Tuple[complex, complex]]:
    """Floating-point fallback: joint eigenvalue pairs via a complex Schur form.

    Intended for commuting pairs whose spectrum is not in Q(i); results
    carry ordinary floating-point error and are labeled approximate by
    callers.
    """
    import numpy as np
    from scipy.linalg import schur

    if m1.rows == 0:
        return []
    a1 = np.array([[complex(m1[i, j]) for j in range(m1.cols)]
                   for i in range(m1.rows)])
    a2 = np.array([[complex(m2[i, j]) for j in range(m2.cols)]
                   for i in range(m2.rows)])
    T, Z = schur(a1, output="complex")
    B = Z.conj().T @ a2 @ Z
    # For a commuting pair B is upper triangular up to roundoff.
    lower = np.tril(B, -1)
    if np.abs(lower).max(initial=0.0) > tol * max(1.0, np.abs(B).max(initial=1.0)):
        raise NonCommuting("joint Schur reduction failed beyond tolerance")
    pairs = [(complex(T[j, j]), complex(B[j, j])) for j in range(m1.rows)]
    pairs.sort(key=lambda p: (p[0].real, p[0].imag, p[1].real, p[1].imag))
    return pairs
