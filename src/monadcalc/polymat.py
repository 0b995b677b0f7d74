"""Matrix-coefficient polynomials.

A polynomial matrix is a dict mapping a monomial exponent tuple to its
Matrix coefficient; zero coefficients are dropped.  This is all the
symbolic machinery the monad identities need.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .matrix import Matrix

PolyMatrix = Dict[Tuple[int, ...], Matrix]


def linear_polymatrix(values: Sequence[Matrix]) -> PolyMatrix:
    """The polynomial matrix of a map linear in n = len(values) coordinates,
    from its values at the n unit points: each is its coordinate's coefficient."""
    n = len(values)
    return {tuple(int(i == j) for j in range(n)): M
            for i, M in enumerate(values) if not M.is_zero()}


def poly_matmul(p: PolyMatrix, q: PolyMatrix) -> PolyMatrix:
    out: PolyMatrix = {}
    for m1, A in p.items():
        for m2, B in q.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            prod = A @ B
            out[mono] = out[mono] + prod if mono in out else prod
    return {m: M for m, M in out.items() if not M.is_zero()}

