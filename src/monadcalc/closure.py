"""Invariant-subspace closures and nilpotency over Q(i).

The yes/no questions run on Gaussian-integer numerators (the integer
form ``matrix._ZiMatrix``) and make no ``Matrix`` product.
:func:`is_nilpotent` reads the characteristic polynomial of the
numerators (Berkowitz's division-free ``matrix._berkowitz``): a k x k
matrix is nilpotent iff it is t^k.  :func:`invariant_closure` spins any
columns that span its seed into ``matrix._Echelon`` (Parker's MeatAxe),
the package's one fraction-free echelon over Z[i], and canonicalizes
once.  Both run on integer forms as ``_nilpotent`` and ``_spin``, which
``p2``'s concentration test calls on one form of its tuple.
:func:`nilpotency_index` takes powers of ``Matrix`` values, for the
reports that show the index.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence, Tuple

from .errors import DimensionMismatch, NonSquareMatrix
from .matrix import (Matrix, Subspace, _berkowitz, _Echelon, _gdot, _primitive,
                     _ZiMatrix)


def invariant_closure(generators: Sequence[Matrix], seed: Matrix) -> Subspace:
    """Smallest subspace containing seed's columns, invariant under all generators.

    The invariant-subspace spin of Parker's MeatAxe (Computational Group
    Theory, 1984) on Gaussian-integer numerators (:func:`_spin`).  It
    visits the vectors w(g) v, for words w and columns v of ``seed`` (any
    spanning set), breadth-first, queueing each kept vector's images
    together: one length comes in lexicographic order of (column, word),
    the word read from its first-acting letter.  Each visited vector is
    added to one fraction-free echelon (``matrix._Echelon``), which keeps
    it only if it is independent of those kept before.  Only a kept
    vector is extended by every generator; the images of a dependent one
    are combinations of images of kept ones.  The canonical basis is read
    off the echelon with one division, so the spin canonicalizes once.
    """
    n = seed.rows
    for g in generators:
        if not g.is_square() or g.rows != n:
            raise DimensionMismatch(
                f"generator shape {g.rows}x{g.cols} does not match ambient {n}")
    return _spin([_ZiMatrix.of(g) for g in generators], _ZiMatrix.of(seed))[0].subspace()


def _spin(generators: Sequence[_ZiMatrix], seed: _ZiMatrix) -> Tuple[_Echelon, list]:
    """The spin of :func:`invariant_closure` on integer forms: its echelon
    and the primitive vectors it kept, which span the closure."""
    # numerators only: a nonzero multiple of a vector has the same span
    gens, queue = [g._rows() for g in generators], deque(seed._columns())
    echelon, kept = _Echelon(seed.rows), []
    while queue and len(echelon.rows) < seed.rows:
        v = queue.popleft()
        if echelon.add(v):
            kept.append(_primitive(v))
            queue.extend([_gdot(row, kept[-1]) for row in G] for G in gens)
    return echelon, kept


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
    """Whether some power of M is zero (:func:`_nilpotent`)."""
    if not M.is_square():
        raise NonSquareMatrix("nilpotency is defined for square matrices")
    # eigen's separation test mostly asks about zero matrices
    return M.is_zero() or _nilpotent(_ZiMatrix.of(M))


def _nilpotent(Z: _ZiMatrix) -> bool:
    """Whether the square integer form Z is nilpotent, det(t - Z) = t^k, read
    off the characteristic polynomial of its numerators: no division, no power."""
    return not any(a or b for a, b in _berkowitz(Z)[1:])
