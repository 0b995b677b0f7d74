"""Invariant-subspace closures and nilpotency over Q(i).

The yes/no questions run on Gaussian-integer numerators (the integer
form ``matrix._ZiMatrix``) and make no ``Matrix`` product.
:func:`is_nilpotent` reads the characteristic polynomial of the
numerators (Berkowitz's division-free ``matrix._berkowitz``): a k x k
matrix is nilpotent iff it is t^k.  :func:`invariant_closure` spins any
columns that span its seed into ``matrix._Echelon`` (Parker's MeatAxe),
the package's one fraction-free echelon over Z[i], and canonicalizes
once.  Both run on integer forms as ``_nilpotent`` and ``_spin``, which
``p2``'s concentration test calls on one form of its tuple, reading
its witness word off the spin's kept (word, vector) pairs.
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
    Theory, 1984) on Gaussian-integer numerators (:func:`_spin`), over
    any columns that span the seed.  The canonical basis is read off the
    spin's echelon with one division, so the spin canonicalizes once.
    """
    n = seed.rows
    for g in generators:
        if not g.is_square() or g.rows != n:
            raise DimensionMismatch(
                f"generator shape {g.rows}x{g.cols} does not match ambient {n}")
    return _spin([_ZiMatrix.of(g) for g in generators], _ZiMatrix.of(seed))[0].subspace()


def _spin(generators: Sequence[_ZiMatrix], seed: _ZiMatrix) -> Tuple[_Echelon, list]:
    """The spin of :func:`invariant_closure` on integer forms: its echelon
    and the (word, primitive vector) pairs it kept, which span the closure.

    Words w over the generators (indices from 1, the first letter acting
    first) come level by level in lexicographic order, each applied to
    the kept columns of its prefix, into one fraction-free echelon, which
    keeps a vector only if it is independent of those kept before.  So
    for any linear map c, the first kept vector that c does not kill
    carries the least word w with c w(g) seed != 0.
    """
    # numerators only: a nonzero multiple of a vector has the same span
    gens, queue = [g._rows() for g in generators], deque([((), seed._columns())])
    echelon, kept = _Echelon(seed.rows), []
    while queue and len(echelon.rows) < seed.rows:
        word, vs = queue.popleft()
        new = [_primitive(v) for v in vs if echelon.add(v)]
        kept += ((word, v) for v in new)
        if new:
            queue.extend((word + (i,), [[_gdot(row, v) for row in G] for v in new])
                         for i, G in enumerate(gens, 1))
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
