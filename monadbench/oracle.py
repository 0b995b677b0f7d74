"""Independent arithmetic for the correctness checks.

Everything here recomputes a property with sympy's own exact matrices
(``DomainMatrix`` over QQ_I) or with numpy, from the raw matrix entries,
never through monadcalc's kernel, so a fault in ``matrix`` or ``field``
cannot confirm itself.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix


def _gauss(re, im):
    return QQ_I(QQ(int(re.numerator), int(re.denominator)),
                QQ(int(im.numerator), int(im.denominator)))


def scalar(q):
    """A monadcalc QI as an element of QQ_I."""
    return _gauss(q.re, q.im)


def to_domain(M) -> DomainMatrix:
    """A monadcalc Matrix as an exact sympy DomainMatrix over QQ_I."""
    return DomainMatrix([[scalar(M[i, j]) for j in range(M.cols)]
                         for i in range(M.rows)], (M.rows, M.cols), QQ_I)


def from_json(rows, nrows: int, ncols: int) -> DomainMatrix:
    """A document's matrix (rows of {"re", "im"} strings), parsed directly."""
    return DomainMatrix([[_gauss(Fraction(e["re"]), Fraction(e["im"]))
                          for e in row] for row in rows], (nrows, ncols), QQ_I)


def eye(n: int) -> DomainMatrix:
    return DomainMatrix.eye(n, QQ_I)


def are_eigenvalues(values, S: DomainMatrix) -> bool:
    """True iff ``values`` (QIs) are the eigenvalues of S with multiplicity.

    That holds exactly when prod(t - v) is sympy's characteristic
    polynomial of S, so no root finding is needed to confirm it.
    """
    poly = [QQ_I.one]
    for v in values:
        v = scalar(v)
        poly = [a - v * b for a, b in zip(poly + [QQ_I.zero], [QQ_I.zero] + poly)]
    return poly == S.charpoly()


def nilpotency_index(S: DomainMatrix):
    """Smallest n <= size with S^n = 0, or None."""
    n = S.shape[0]
    P = S
    for i in range(1, n + 1):
        if P.is_zero_matrix:
            return i
        P = P * S
    return 1 if n == 0 else None


def to_numpy(M) -> np.ndarray:
    return np.array([[complex(M[i, j]) for j in range(M.cols)]
                     for i in range(M.rows)])


def float_tolerance(a1, a2) -> float:
    """Agreement bound for the float eigenvalue path on a1, a2.

    Bauer-Fike: a backward error E moves a simple eigenvalue by at most
    kappa(V) * ||E||, with V the eigenvector matrix.  A backward-stable
    Schur form has ||E|| <= p(n) eps ||A||; p(n) = 64 covers the sizes
    used here.  The bound is never tighter than 1e-9.
    """
    A1, A2 = to_numpy(a1), to_numpy(a2)
    if A1.size == 0:
        return 1e-9
    _, V = np.linalg.eig(A1)
    scale = max(1.0, np.linalg.norm(A1), np.linalg.norm(A2))
    bound = 64 * np.finfo(float).eps * np.linalg.cond(V) * scale
    return max(1e-9, float(bound))
