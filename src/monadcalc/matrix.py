"""Dense exact matrices over Q(i) and canonical subspaces.

Everything is immutable by convention; operations return fresh values.
Subspaces are stored in reduced column echelon form so that equality of
subspaces is equality of their basis matrices.

Entries are Gaussian rationals in and Gaussian rationals out.  ``Matrix``
products, powers and traces work on the ``QI`` entries directly.  The
private integer form ``_ZiMatrix`` (Gaussian-integer numerators over one
integer denominator) runs chains of products, stacks and solves without
``QI`` arithmetic.  Exact elimination has one reducer, ``_Echelon``: a
fraction-free Gauss-Jordan form over Z[i] that grows one row at a time.
rref, rank, solve, inverse, kernels, spans and the closure spin of
``closure`` each add their rows to one echelon and read the result off
it with one division.  The group actions ``p2.act`` and
``blowup.act2``, the seeded generators' products, ``_invariant_split``
(the one basis change of ``p2._split`` and ``eigen.commuting_reduce``)
and ``eigen.joint_spectrum``'s commutation test run on the integer form
too, converting each input once and each result once.  So does the
nilpotency test of ``closure``, which reads ``_berkowitz``, the
division-free characteristic polynomial of the numerators that
``eigen.char_poly`` also wraps.  The separating form's powers and traces
in ``eigen`` still multiply ``QI`` entries, as ``Matrix`` products do.
``_clear`` is the one place where denominators are cleared.
"""

from __future__ import annotations

from bisect import bisect
from itertools import chain
from math import gcd, lcm
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, NonSquareMatrix, check_invariant
from .field import ONE, QI, ZERO, Rat, qi


class Matrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[QI]):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative matrix dimensions")
        entries = tuple(e if isinstance(e, QI) else qi(e) for e in entries)
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [ONE if i == j else ZERO
                          for i in range(n) for j in range(n)])

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        flat = []
        for r in rows:
            if len(r) != nc:
                raise DimensionMismatch("ragged row lengths")
            flat.extend(qi(x) for x in r)
        return cls(nr, nc, flat)

    @classmethod
    def column(cls, values: Sequence) -> "Matrix":
        return cls(len(values), 1, [qi(v) for v in values])

    @classmethod
    def diagonal(cls, values: Sequence) -> "Matrix":
        n = len(values)
        m = [ZERO] * (n * n)
        for j, v in enumerate(values):
            m[j * n + j] = qi(v)
        return cls(n, n, m)

    # -- access ---------------------------------------------------------

    def __getitem__(self, ij: Tuple[int, int]) -> QI:
        i, j = ij
        if 0 <= i < self.rows and 0 <= j < self.cols:
            return self.entries[i * self.cols + j]
        raise IndexError(
            f"index ({i}, {j}) out of range for a {self.rows}x{self.cols} matrix")

    def row_list(self, i: int) -> List[QI]:
        if not 0 <= i < self.rows:
            raise IndexError(
                f"row {i} out of range for a {self.rows}x{self.cols} matrix")
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def col_matrix(self, j: int) -> "Matrix":
        return self.submatrix(range(self.rows), [j])

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        """The entries at the given rows and columns, in the order given."""
        if not (all(0 <= i < self.rows for i in rows)
                and all(0 <= j < self.cols for j in cols)):
            raise IndexError(
                f"rows {list(rows)}, columns {list(cols)} out of range"
                f" for a {self.rows}x{self.cols} matrix")
        return Matrix(len(rows), len(cols),
                      [self.entries[i * self.cols + j] for i in rows for j in cols])

    # -- arithmetic -----------------------------------------------------

    def _check_same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"shape {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols,
                      [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols,
                      [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, s) -> "Matrix":
        s = qi(s)
        if s.is_zero():
            return Matrix.zeros(self.rows, self.cols)
        if s == ONE:
            return self
        return Matrix(self.rows, self.cols, [s * a for a in self.entries])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n, m, p = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = [ZERO] * (n * p)
        for i in range(n):
            ia = i * m
            for l in range(m):
                x = a[ia + l]
                if x.is_zero():
                    continue
                ib = l * p
                io = i * p
                for j in range(p):
                    y = b[ib + j]
                    if not y.is_zero():
                        out[io + j] = out[io + j] + x * y
        return Matrix(n, p, out)

    def __pow__(self, n: int) -> "Matrix":
        if self.rows != self.cols:
            raise NonSquareMatrix("matrix power needs a square matrix")
        if n < 0:
            raise ValueError("matrix power needs a nonnegative exponent")
        result = Matrix.identity(self.rows)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base if n > 1 else base
            n >>= 1
        return result

    def transpose(self) -> "Matrix":
        c = self.cols
        return Matrix(c, self.rows,
                      [x for j in range(c) for x in self.entries[j::c]])

    def trace(self) -> QI:
        if self.rows != self.cols:
            raise NonSquareMatrix("trace needs a square matrix")
        return sum(self.entries[::self.cols + 1], ZERO)

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_upper_triangular(self) -> bool:
        return all(self[i, j].is_zero()
                   for i in range(self.rows)
                   for j in range(min(i, self.cols)))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) \
            and self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(
            ", ".join(repr(e) for e in self.row_list(i))
            for i in range(self.rows))
        return f"Matrix[{self.rows}x{self.cols}: {body}]"


def hstack(mats: Iterable[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise DimensionMismatch("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionMismatch("hstack with differing row counts")
    out = []
    for i in range(rows):
        for m in mats:
            out.extend(m.row_list(i))
    return Matrix(rows, sum(m.cols for m in mats), out)


def vstack(mats: Iterable[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise DimensionMismatch("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionMismatch("vstack with differing column counts")
    out = []
    for m in mats:
        out.extend(m.entries)
    return Matrix(sum(m.rows for m in mats), cols, out)


def block(rows_of_blocks: Sequence[Sequence[Matrix]]) -> Matrix:
    return vstack([hstack(row) for row in rows_of_blocks])


# -- elimination --------------------------------------------------------
#
# Gaussian integers a + b i are (a, b) pairs.  Elimination never leaves
# Z[i]: a matrix enters it as the integer form ``_ZiMatrix`` (numerators
# over one common denominator), and its rows join one ``_Echelon``, a
# fraction-free Gauss-Jordan form (Bareiss, Math. Comp. 22, 1968) that
# grows one row at a time.  Each incoming row is first divided by the gcd
# of its numerators (row scaling keeps the span, and keeps the pivots
# from growing with the other rows' denominators).  Every kept row is d
# times its RREF row, so one pass against the kept rows reduces a new
# one, and a new pivot updates the kept rows with one exact division by
# d.  ``rref``, ``rank``, ``solve``, ``inverse``, ``kernel_basis``,
# ``Subspace.from_span`` and the closure spin each build one echelon, and
# read the result off it with one division by d.

Gauss = Tuple[int, int]


def _clear(entries: Sequence[QI]) -> Tuple[List[Gauss], int]:
    """The Gaussian-integer numerators of ``entries`` over their least
    common denominator, and that denominator.

    Reads only ``numerator`` and ``denominator`` of the rational parts, so
    either ``field.Rat`` type works.
    """
    den = lcm(*(q.denominator for x in entries for q in (x.re, x.im)))
    return [(x.re.numerator * (den // x.re.denominator),
             x.im.numerator * (den // x.im.denominator))
            for x in entries], den


def _gdot(xs: Sequence[Gauss], ys: Sequence[Gauss]) -> Gauss:
    """sum x y over the pairs of xs and ys, as far as the shorter goes."""
    re = im = 0
    for (a, b), (c, d) in zip(xs, ys):
        re += a * c - b * d
        im += a * d + b * c
    return re, im


def _primitive(v: List[Gauss]) -> List[Gauss]:
    """v divided by the gcd of its integer parts."""
    g = gcd(*chain.from_iterable(v))
    return [(a // g, b // g) for a, b in v] if g > 1 else v


class _Echelon:
    """The fraction-free RREF over Z[i] of the rows added so far.

    Each kept row is d times its RREF row: it holds d at its pivot, which
    is its leading entry, and 0 at every other pivot.  The kept rows are
    in increasing order of their pivots ``pivots``.
    """

    __slots__ = ("cols", "pivots", "rows", "d")

    def __init__(self, cols: int, rows: Iterable[List[Gauss]] = ()):
        self.cols, self.pivots, self.rows, self.d = cols, [], [], (1, 0)
        for v in rows:
            self.add(v)

    def add(self, v: List[Gauss]) -> bool:
        """Keep v's remainder w = d v - sum v[p] row_p if it is nonzero,
        and say whether it was kept.  w is Bareiss's bordered minor, so
        no division is needed; its leading entry w[q] becomes the new d,
        and each kept row becomes (w[q] row - row[q] w) / d."""
        v = _primitive(v)
        dr, di = self.d
        w = v if dr == 1 and not di else [(dr * a - di * b, dr * b + di * a)
                                          for a, b in v]
        for p, row in zip(self.pivots, self.rows):
            fr, fi = v[p]
            if fr or fi:
                w = [(ar - fr * br + fi * bi, ai - fr * bi - fi * br)
                     for (ar, ai), (br, bi) in zip(w, row)]
        for q, (pr, pi) in enumerate(w):
            if pr or pi:
                break
        else:
            return False
        nd = dr * dr + di * di
        for i, row in enumerate(self.rows):
            fr, fi = row[q]
            if not (fr or fi) and pr == dr and pi == di:
                continue  # p * row / d = row
            new = []
            for (xr, xi), (yr, yi) in zip(row, w):
                ar = pr * xr - pi * xi - fr * yr + fi * yi
                ai = pr * xi + pi * xr - fr * yi - fi * yr
                if di:
                    ar, ai = (ar * dr + ai * di) // nd, (ai * dr - ar * di) // nd
                elif dr != 1:
                    ar, ai = ar // dr, ai // dr
                new.append((ar, ai))
            self.rows[i] = new
        i = bisect(self.pivots, q)
        self.pivots.insert(i, q)
        self.rows.insert(i, w)
        self.d = (pr, pi)
        return True

    def divided(self, rows: int, cols: int, nums: Iterable[Gauss]) -> "_ZiMatrix":
        """The matrix of the numerators ``nums`` divided by d:
        x / d = x conj(d) / |d|^2."""
        dr, di = self.d
        return _ZiMatrix(rows, cols, [(a * dr + b * di, b * dr - a * di)
                                      for a, b in nums], dr * dr + di * di)

    def subspace(self) -> "Subspace":
        """The span of the rows added, as the columns of its reduced
        column echelon basis."""
        n, rows = self.cols, self.rows
        return Subspace(n, self.divided(
            n, len(rows), [row[i] for i in range(n) for row in rows]).matrix())


class _ZiMatrix:
    """A matrix as Gaussian-integer numerators over one positive integer
    denominator, in lowest terms, so equal matrices have equal forms.

    ``nums`` is the row-major list of (re, im) pairs.  Products, stacks
    and linear combinations cost integer arithmetic and one gcd per
    result; rank and solve add the rows of the numerators to one
    ``_Echelon``, and the module's ``rank``, ``solve`` and ``inverse`` run
    through them.
    ``of`` and ``matrix`` convert from and to ``Matrix``.
    """

    __slots__ = ("rows", "cols", "nums", "den")

    def __init__(self, rows: int, cols: int, nums: List[Gauss], den: int = 1):
        g = gcd(den, *chain.from_iterable(nums))
        if g != 1:
            nums = [(a // g, b // g) for a, b in nums]
            den //= g
        self.rows, self.cols, self.nums, self.den = rows, cols, nums, den

    @classmethod
    def of(cls, M: Matrix) -> "_ZiMatrix":
        return cls(M.rows, M.cols, *_clear(M.entries))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "_ZiMatrix":
        return cls(rows, cols, [(0, 0)] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "_ZiMatrix":
        return cls(n, n, [(1, 0) if i == j else (0, 0)
                          for i in range(n) for j in range(n)])

    def matrix(self) -> Matrix:
        d = self.den
        return Matrix(self.rows, self.cols,
                      [ZERO if not (a or b) else ONE if a == d and not b
                       else QI(Rat(a, d), Rat(b, d)) for a, b in self.nums])

    def _rows(self) -> List[List[Gauss]]:
        c = self.cols
        return [self.nums[i * c:(i + 1) * c] for i in range(self.rows)]

    def _columns(self) -> List[List[Gauss]]:
        return [self.nums[j::self.cols] for j in range(self.cols)]

    def _over(self, den: int) -> List[Gauss]:
        """The numerators over ``den``, a multiple of the denominator."""
        s = den // self.den
        return self.nums if s == 1 else [(s * a, s * b) for a, b in self.nums]

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "_ZiMatrix":
        return _ZiMatrix(len(rows), len(cols),
                         [self.nums[i * self.cols + j] for i in rows for j in cols],
                         self.den)

    def scale(self, g: Gauss, e: int = 1) -> "_ZiMatrix":
        """g / e times the matrix, for a Gaussian integer g and an integer e > 0."""
        gr, gi = g
        return _ZiMatrix(self.rows, self.cols,
                         [(gr * a - gi * b, gr * b + gi * a) for a, b in self.nums],
                         self.den * e)

    def __neg__(self) -> "_ZiMatrix":
        return _ZiMatrix(self.rows, self.cols,
                         [(-a, -b) for a, b in self.nums], self.den)

    def __add__(self, other: "_ZiMatrix") -> "_ZiMatrix":
        return self - (-other)

    def __sub__(self, other: "_ZiMatrix") -> "_ZiMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"shape {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        den = lcm(self.den, other.den)
        return _ZiMatrix(self.rows, self.cols,
                         [(a - c, b - d) for (a, b), (c, d)
                          in zip(self._over(den), other._over(den))], den)

    def __matmul__(self, other: "_ZiMatrix") -> "_ZiMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        columns = other._columns()
        out = [_gdot(row, col) for row in self._rows() for col in columns]
        return _ZiMatrix(self.rows, other.cols, out, self.den * other.den)

    @staticmethod
    def hstack(mats: Sequence["_ZiMatrix"]) -> "_ZiMatrix":
        rows = mats[0].rows
        if any(M.rows != rows for M in mats):
            raise DimensionMismatch("hstack with differing row counts")
        den = lcm(*(M.den for M in mats))
        parts = [(M._over(den), M.cols) for M in mats]
        return _ZiMatrix(rows, sum(c for _, c in parts),
                         [x for i in range(rows) for nums, c in parts
                          for x in nums[i * c:(i + 1) * c]], den)

    @staticmethod
    def vstack(mats: Sequence["_ZiMatrix"]) -> "_ZiMatrix":
        cols = mats[0].cols
        if any(M.cols != cols for M in mats):
            raise DimensionMismatch("vstack with differing column counts")
        den = lcm(*(M.den for M in mats))
        return _ZiMatrix(sum(M.rows for M in mats), cols,
                         [x for M in mats for x in M._over(den)], den)

    def is_zero(self) -> bool:
        return not any(a or b for a, b in self.nums)

    def __eq__(self, other):
        if not isinstance(other, _ZiMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.den, self.nums) == \
            (other.rows, other.cols, other.den, other.nums)

    __hash__ = None

    def rank(self) -> int:
        return len(_Echelon(self.cols, self._rows()).pivots)

    def solve(self, B: "_ZiMatrix") -> Tuple[int, Optional["_ZiMatrix"]]:
        """The rank of this matrix A and a particular solution X of
        A X = B (None if there is none), from one echelon of [A | B]:
        the pivots left of the B block give the rank, a pivot inside it
        means inconsistency, and the pivot rows give X."""
        if self.rows != B.rows:
            raise DimensionMismatch("solve with mismatched row counts")
        n = self.cols
        E = _Echelon(n + B.cols, _ZiMatrix.hstack([self, B])._rows())
        rank = sum(p < n for p in E.pivots)
        if rank < len(E.pivots):
            return rank, None
        X = [[(0, 0)] * B.cols for _ in range(n)]
        for p, row in zip(E.pivots, E.rows):
            X[p] = row[n:]
        return rank, E.divided(n, B.cols, chain.from_iterable(X))

    def inverse(self) -> Optional["_ZiMatrix"]:
        """The inverse, or None if the matrix is singular."""
        if self.rows != self.cols:
            raise NonSquareMatrix("inverse needs a square matrix")
        # A X = I is inconsistent exactly when A is singular
        return self.solve(_ZiMatrix.identity(self.rows))[1]


def _berkowitz(Z: _ZiMatrix) -> List[Gauss]:
    """The coefficients [1, c1, ..., ck] of det(t - N) for the numerators
    N of a square integer form: Berkowitz's division-free algorithm
    (Inf. Process. Lett. 18, 1984).

    Bordering the leading r x r block A of N by the row R, the column C
    and the corner a multiplies det(t - A) by the Toeplitz matrix of
    1, -a, -R C, -R A C, ..., -R A^(r-1) C.
    """
    k, N = Z.rows, Z.nums
    P = [(1, 0)]  # det(t - A) for the leading r x r block A of N
    for r in range(k):
        A = [N[i * k:i * k + r] for i in range(r)]
        R = N[r * k:r * k + r]
        a = N[r * k + r]
        column = [(1, 0), (-a[0], -a[1])]
        v = [N[i * k + r] for i in range(r)]  # A^j C
        for j in range(r):
            if j:
                v = [_gdot(row, v) for row in A]
            x, y = _gdot(R, v)
            column.append((-x, -y))
        P = [_gdot(P, column[j::-1]) for j in range(r + 2)]
    return P


def rref(M: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row echelon form and pivot columns (Gauss-Jordan, exact)."""
    E = _Echelon(M.cols, _ZiMatrix.of(M)._rows())
    rows = E.rows + [[(0, 0)] * M.cols] * (M.rows - len(E.rows))
    return (E.divided(M.rows, M.cols, chain.from_iterable(rows)).matrix(),
            tuple(E.pivots))


def rank(M: Matrix) -> int:
    return _ZiMatrix.of(M).rank()


def solve(A: Matrix, B: Matrix) -> Optional[Matrix]:
    """A particular exact solution X of ``A X = B``, or None if inconsistent."""
    X = _ZiMatrix.of(A).solve(_ZiMatrix.of(B))[1]
    return None if X is None else X.matrix()


def inverse(A: Matrix) -> Optional[Matrix]:
    X = _ZiMatrix.of(A).inverse()
    return None if X is None else X.matrix()


# -- subspaces ----------------------------------------------------------

class Subspace:
    """A subspace of Q(i)^n held as a reduced-column-echelon basis.

    The echelon form (pivots in increasing row order, pivot entries 1,
    zeros elsewhere in pivot rows) is a canonical representative, so two
    Subspace values are equal iff they are the same subspace.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Matrix):
        if basis.rows != ambient_dim:
            raise DimensionMismatch("basis rows must equal ambient dimension")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_span(cls, columns: Matrix) -> "Subspace":
        """Canonicalize the span of the given columns."""
        return _Echelon(columns.rows, _ZiMatrix.of(columns)._columns()).subspace()

    @property
    def dim(self) -> int:
        return self.basis.cols

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains(self, v: Matrix) -> bool:
        if v.rows != self.ambient_dim or v.cols != 1:
            raise DimensionMismatch("vector shape mismatch")
        return solve(self.basis, v) is not None

    def contains_space(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimension mismatch")
        return solve(self.basis, other.basis) is not None

    def sum(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimension mismatch")
        return Subspace.from_span(hstack([self.basis, other.basis]))

    def annihilator(self) -> "Subspace":
        """All u with u^T v = 0 for every v in the space (bilinear pairing)."""
        return kernel_basis(self.basis.transpose())

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def basis_extension(space: Subspace) -> Matrix:
    """Invertible matrix whose first dim columns are the subspace basis,
    followed by the unit vectors of the rows without a basis pivot.

    The basis is in reduced column echelon form (or is one column of
    such a basis), so the pivot of each column is its first nonzero row.
    """
    n, B = space.ambient_dim, space.basis
    pivot_rows = {next(i for i in range(n) if not B[i, j].is_zero())
                  for j in range(space.dim)}
    others = [j for j in range(n) if j not in pivot_rows]
    return hstack([B, Matrix.identity(n).submatrix(range(n), others)])


def _invariant_split(mats: Sequence[_ZiMatrix], space: Subspace):
    """(P, P^-1, tops, bottoms) with P = basis_extension(space): ``tops`` and
    ``bottoms`` hold each M on the invariant subspace and on the quotient."""
    P = _ZiMatrix.of(basis_extension(space))
    Pinv = P.inverse()
    check_invariant(Pinv is not None, "basis extension is singular")
    head, tail = range(space.dim), range(space.dim, space.ambient_dim)
    conj = [Pinv @ M @ P for M in mats]
    check_invariant(all(C.submatrix(tail, head).is_zero() for C in conj),
                    "split subspace is not invariant")
    return (P, Pinv, [C.submatrix(head, head) for C in conj],
            [C.submatrix(tail, tail) for C in conj])


def kernel_basis(M: Matrix) -> Subspace:
    """Canonical basis of the right kernel of M, from one echelon.

    Reverse the columns of M.  In the RREF of the result, each free
    column f gives the kernel vector that is 1 at f, 0 at the other free
    columns and 0 after f.  Reversed back, these vectors start with 1 at
    distinct coordinates where all the others are 0: in order of that
    leading coordinate, they are the reduced column echelon basis.  Each
    is formed d times over, from the echelon's rows, and divided by d once.
    """
    n = M.cols
    E = _Echelon(n, [row[::-1] for row in _ZiMatrix.of(M)._rows()])
    cols = []
    for f in reversed([j for j in range(n) if j not in E.pivots]):
        v = [(0, 0)] * n
        v[f] = E.d
        for row, p in zip(E.rows, E.pivots):
            a, b = row[f]
            v[p] = (-a, -b)
        cols.append(v[::-1])
    return Subspace(n, E.divided(n, len(cols), [c[i] for i in range(n)
                                                for c in cols]).matrix())


def column_space(M: Matrix) -> Subspace:
    return Subspace.from_span(M)
