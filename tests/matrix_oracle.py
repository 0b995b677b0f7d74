"""Reference linear algebra over Q(i), on ``QI`` entries.

Gauss-Jordan elimination is the kernel the package used before its
fraction-free Z[i] kernel, kept as the oracle that
``tests/test_matrix_oracle.py`` compares ``rref``, ``rank``, ``solve``,
``inverse``, ``kernel_basis`` and ``basis_extension`` against.
Faddeev-LeVerrier is the characteristic polynomial the package computed
before Berkowitz's division-free algorithm over Z[i], kept as the oracle
that ``tests/test_char_poly_oracle.py`` compares ``char_poly`` against.
The group actions and the generators' products on ``QI`` entries are
what ``act``, ``act2``, ``random_invertible`` and ``_poly_in`` computed
before they ran on the integer form, and ``invariant_split`` and
``split`` are the reduction's basis changes (``matrix._invariant_split``
and ``p2._split``) on ``QI`` entries; ``tests/test_matrix_oracle.py``
compares them.  ``invariant_closure`` and ``max_invariant_in_kernel``
are the breadth-first closures the package computed before it spun one
echelon basis over Z[i]; ``tests/test_closure_oracle.py`` compares them.
"""

from monadcalc.blowup import MonadDataBlowup
from monadcalc.errors import SingularGroupElement, check_invariant
from monadcalc.field import ONE, QI, ZERO
from monadcalc.generate import _rand_qi, _rand_unitriangular
from monadcalc.matrix import Matrix, Subspace, hstack
from monadcalc.p2 import MonadDataP2


def rref(M):
    """Reduced row echelon form and pivot columns (Gauss-Jordan, exact)."""
    rows = [M.row_list(i) for i in range(M.rows)]
    nr, nc = M.rows, M.cols
    pivots = []
    pr = 0
    for pc in range(nc):
        pivot_row = None
        for i in range(pr, nr):
            if not rows[i][pc].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = rows[pr][pc].inverse()
        rows[pr] = [inv * x for x in rows[pr]]
        for i in range(nr):
            if i == pr:
                continue
            f = rows[i][pc]
            if f.is_zero():
                continue
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == nr:
            break
    flat = [x for r in rows for x in r]
    return Matrix(nr, nc, flat), tuple(pivots)


def rank(M):
    return len(rref(M)[1])


def solve(A, B):
    R, pivots = rref(hstack([A, B]))
    if any(p >= A.cols for p in pivots):
        return None
    X = [[ZERO] * B.cols for _ in range(A.cols)]
    for r, p in enumerate(pivots):
        for j in range(B.cols):
            X[p][j] = R[r, A.cols + j]
    return Matrix(A.cols, B.cols, [x for row in X for x in row])


def inverse(A):
    R, pivots = rref(hstack([A, Matrix.identity(A.rows)]))
    if tuple(pivots[:A.rows]) != tuple(range(A.rows)) or len(pivots) != A.rows:
        return None
    return Matrix(A.rows, A.rows,
                  [R[i, A.cols + j] for i in range(A.rows)
                   for j in range(A.rows)])


def from_span(columns):
    R, pivots = rref(columns.transpose())
    rows = [R.row_list(i) for i in range(len(pivots))]
    if rows:
        basis = Matrix(len(rows), columns.rows,
                       [x for r in rows for x in r]).transpose()
    else:
        basis = Matrix.zeros(columns.rows, 0)
    return Subspace(columns.rows, basis)


def kernel_basis(M):
    R, pivots = rref(M)
    pivset = set(pivots)
    cols = []
    for f in (j for j in range(M.cols) if j not in pivset):
        v = [ZERO] * M.cols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -R[r, f]
        cols.append(v)
    if cols:
        B = Matrix(len(cols), M.cols, [x for c in cols for x in c]).transpose()
    else:
        B = Matrix.zeros(M.cols, 0)
    return from_span(B)


def basis_extension(space):
    """The basis followed by the unit vectors of the rows without a pivot
    of ``rref(basis^T)``."""
    n = space.ambient_dim
    _, pivot_rows = rref(space.basis.transpose())
    others = [j for j in range(n) if j not in set(pivot_rows)]
    unit_cols = [Matrix.column([ONE if i == j else ZERO for i in range(n)])
                 for j in others]
    pieces = [space.basis] + unit_cols
    return hstack(pieces) if space.dim + len(others) > 0 else Matrix.zeros(n, 0)


def char_poly(M):
    """Coefficients [1, c1, ..., ck] of det(t*I - M) (Faddeev-LeVerrier)."""
    k = M.rows
    coeffs = [ONE]
    N = Matrix.identity(k)
    for i in range(1, k + 1):
        MN = M @ N
        c = -(MN.trace() / QI(i))
        coeffs.append(c)
        N = MN + Matrix.identity(k).scale(c)
    return coeffs


def act(g, m):
    """The GL(W) action (g^-1 a1 g, g^-1 a2 g, g^-1 b, c g)."""
    ginv = inverse(g)
    if ginv is None:
        raise SingularGroupElement("group element is not invertible")
    return MonadDataP2(ginv @ m.a1 @ g, ginv @ m.a2 @ g, ginv @ m.b, m.c @ g)


def act2(g0, g1, mt):
    """The GL(W0) x GL(W1) action on a blowup tuple."""
    g0inv, g1inv = inverse(g0), inverse(g1)
    if g0inv is None or g1inv is None:
        raise SingularGroupElement("group element is not invertible")
    return MonadDataBlowup(g0inv @ mt.a1 @ g1, g0inv @ mt.a2 @ g1,
                           g1inv @ mt.d @ g0, g0inv @ mt.b, mt.c @ g1)


def random_invertible(rng, k):
    """L U from the same draws as ``generate.random_invertible``."""
    return _rand_unitriangular(rng, k, upper=False) @ \
        _rand_unitriangular(rng, k, upper=True)


def poly_in(rng, M):
    """sum_{n < size} s_n M^n from the same draws as ``generate._poly_in``."""
    out = Matrix.zeros(M.rows, M.rows)
    power = Matrix.identity(M.rows)
    for _ in range(M.rows):
        out = out + power.scale(_rand_qi(rng, 4))
        power = power @ M
    return out


def invariant_split(mats, space):
    """``(P, P^-1, tops, bottoms)``: P^-1 = inverse(P), then each
    P^-1 M P and its diagonal blocks."""
    P = basis_extension(space)
    Pinv = inverse(P)
    check_invariant(Pinv is not None, "basis extension is singular")
    head, tail = range(space.dim), range(space.dim, space.ambient_dim)
    conj = [Pinv @ M @ P for M in mats]
    check_invariant(all(C.submatrix(tail, head).is_zero() for C in conj),
                    "split subspace is not invariant")
    return (P, Pinv, [C.submatrix(head, head) for C in conj],
            [C.submatrix(tail, tail) for C in conj])


def split(m, V):
    """The tuples that m induces on an (a1, a2)-invariant V and on W/V."""
    P, Pinv, (t1, t2), (q1, q2) = invariant_split([m.a1, m.a2], V)
    nb, nc = Pinv @ m.b, m.c @ P
    head, tail, frame = range(V.dim), range(V.dim, m.k), range(m.r)
    return (MonadDataP2(t1, t2, nb.submatrix(head, frame), nc.submatrix(frame, head)),
            MonadDataP2(q1, q2, nb.submatrix(tail, frame), nc.submatrix(frame, tail)))


def invariant_closure(generators, seed):
    """The span of the basis and all its images, canonicalized every
    round, until the dimension stops growing (at most n rounds)."""
    current = seed
    for _ in range(seed.ambient_dim + 1):
        pieces = [current.basis] + [g @ current.basis for g in generators]
        nxt = from_span(hstack(pieces))
        if nxt.dim == current.dim:
            return current
        current = nxt
    return current


def max_invariant_in_kernel(generators, c):
    """The annihilator of the closure of c's row space under the
    transposed generators."""
    closed = invariant_closure([g.transpose() for g in generators],
                               from_span(c.transpose()))
    return kernel_basis(closed.basis.transpose())
