"""Exact spectra of commuting families: characteristic polynomials,
eigenvalues in Q(i), and simultaneous triangularization.

Root extraction is delegated to sympy's factorization over QQ_I; a
characteristic polynomial with a factor of degree >= 2 over Q(i) raises
IrrationalSpectrum.  A floating-point fallback (Schur form) is provided
for callers that accept approximate eigenvalue pairs.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import sympy

from .errors import (DimensionMismatch, IrrationalSpectrum, NonCommuting,
                     NonSquareMatrix, check_invariant)
from .field import ONE, QI, ZERO
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


def _to_sympy(q: QI):
    return (sympy.Rational(int(q.re.numerator), int(q.re.denominator))
            + sympy.Rational(int(q.im.numerator), int(q.im.denominator)) * sympy.I)


def _from_sympy(expr) -> QI:
    expr = sympy.nsimplify(sympy.expand(expr))
    re, im = expr.as_real_imag()
    if not (re.is_rational and im.is_rational):
        raise IrrationalSpectrum(f"root {expr} is not in Q(i)")
    return QI(f"{sympy.fraction(re)[0]}/{sympy.fraction(re)[1]}",
              f"{sympy.fraction(im)[0]}/{sympy.fraction(im)[1]}")


def roots_in_qi(coeffs: Sequence[QI]) -> List[Tuple[QI, int]]:
    """Roots (with multiplicity) of a monic polynomial, all in Q(i).

    Raises IrrationalSpectrum when the polynomial does not split over
    Q(i).  Output is sorted by the deterministic field order.
    """
    t = sympy.Symbol("t")
    deg = len(coeffs) - 1
    expr = sympy.Integer(0)
    for j, c in enumerate(coeffs):
        expr += _to_sympy(c) * t ** (deg - j)
    poly = sympy.Poly(expr, t, domain="QQ_I")
    _, factors = poly.factor_list()
    found: List[Tuple[QI, int]] = []
    for fac, mult in factors:
        if fac.degree() > 1:
            raise IrrationalSpectrum(
                f"irreducible factor of degree {fac.degree()} over Q(i)")
        if fac.degree() == 1:
            a, b = fac.all_coeffs()
            root = _from_sympy(-b / a)
            found.append((root, mult))
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
