"""Invariant-subspace closures and nilpotency over Q(i).

The yes/no questions run on Gaussian-integer numerators (the integer
form ``matrix._ZiMatrix``) and make no ``Matrix`` product.
:func:`is_nilpotent` reads the characteristic polynomial of the
numerators, from Berkowitz's division-free algorithm
(``matrix._berkowitz``): a k x k matrix is nilpotent iff it is t^k.
:func:`invariant_closure` spins any columns that span its seed into one
fraction-free echelon basis over Z[i] (Parker's MeatAxe) and
canonicalizes once.  :func:`nilpotency_index` takes powers of
``Matrix`` values, for the reports that show the index.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, NonSquareMatrix
from .matrix import (Gauss, Matrix, Subspace, _berkowitz, _gdot, _primitive,
                     _ZiMatrix)


def _reduce(v: List[Gauss], echelon: List[Tuple[int, List[Gauss]]]) -> List[Gauss]:
    """A Z[i]-multiple of v minus a combination of the echelon vectors,
    zero at each of their pivots: v <- e[p] v - v[p] e in turn, for each
    echelon vector e with pivot p (zero at the pivots before its own)."""
    for p, e in echelon:
        xr, xi = v[p]
        if xr or xi:
            qr, qi = e[p]
            v = [(qr * ar - qi * ai - xr * br + xi * bi,
                  qr * ai + qi * ar - xr * bi - xi * br)
                 for (ar, ai), (br, bi) in zip(v, e)]
    return v


def invariant_closure(generators: Sequence[Matrix], seed: Matrix) -> Subspace:
    """Smallest subspace containing seed's columns, invariant under all generators.

    The invariant-subspace spin of Parker's MeatAxe (Computational Group
    Theory, 1984) on Gaussian-integer numerators.  It visits the vectors
    w(g) v, for words w and columns v of ``seed`` (any spanning set),
    breadth-first, queueing each kept vector's images together: one
    length comes in lexicographic order of (column, word), the word read
    from its first-acting letter.  Only a vector independent of those
    kept before is kept and extended by every generator; the images of a
    dependent one are combinations of images of kept ones.  Each kept
    vector's reduction joins one fraction-free echelon basis, divided by
    its gcd once.
    """
    n = seed.rows
    for g in generators:
        if not g.is_square() or g.rows != n:
            raise DimensionMismatch(
                f"generator shape {g.rows}x{g.cols} does not match ambient {n}")
    # numerators only: a nonzero multiple of a vector has the same span
    gens = [_ZiMatrix.of(g)._rows() for g in generators]
    queue = deque(_ZiMatrix.of(seed.transpose())._rows())
    echelon: List[Tuple[int, List[Gauss]]] = []
    while queue and len(echelon) < n:
        v = queue.popleft()
        r = _reduce(v, echelon)
        p = next((i for i, (a, b) in enumerate(r) if a or b), None)
        if p is None:
            continue
        echelon.append((p, _primitive(r)))
        v = _primitive(v)
        queue.extend([_gdot(row, v) for row in G] for G in gens)
    return Subspace.from_span(_ZiMatrix(n, len(echelon), [
        e[i] for i in range(n) for _, e in echelon]).matrix())


def max_invariant_in_kernel(generators: Sequence[Matrix], c: Matrix) -> Subspace:
    """Largest subspace invariant under all generators and contained in Ker c.

    Computed dually: the annihilator of the invariant closure of the rows
    of ``c`` (the columns of c^T) under the transposed generators.
    """
    closed = invariant_closure([g.transpose() for g in generators], c.transpose())
    return closed.annihilator()


def nilpotency_index(M: Matrix) -> Optional[int]:
    """Smallest n with M^n = 0, or None when M is not nilpotent.

    By Cayley-Hamilton a k x k nilpotent matrix satisfies M^k = 0, so
    the powers stop at M^k: k - 1 products at most.
    """
    if not M.is_square():
        raise NonSquareMatrix("nilpotency is defined for square matrices")
    k = M.rows
    if k == 0:
        return 1
    P = M
    for n in range(1, k):
        if P.is_zero():
            return n
        P = P @ M
    return k if P.is_zero() else None


def is_nilpotent(M: Matrix) -> bool:
    """Whether some power of M is zero: det(t - M) = t^k, read off the
    characteristic polynomial of M's numerators, with no division and no
    power of M."""
    if not M.is_square():
        raise NonSquareMatrix("nilpotency is defined for square matrices")
    # eigen's separation test mostly asks about zero matrices
    return M.is_zero() or not any(a or b for a, b in _berkowitz(_ZiMatrix.of(M))[1:])
