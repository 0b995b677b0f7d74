"""Earlier forms of the monad maps and of canonical reduction: test oracles.

Before the maps were defined once, as functions of raw coordinates, the
blowup maps were evaluated from one coefficient matrix per monomial and
both symbolic products were built from hand-written coefficient
dictionaries; the fiber comparison projected with an explicit 0/1
matrix.  Canonical reduction was a fixed-point loop that recomputed both
special subspaces after every split.  The plane's pencil blocks and
monad maps were built on ``QI`` entries, from scaled, subtracted and
stacked blocks (:func:`pencil`).  Those paths are kept here, as they
were, so that the current code can be compared against them.
"""

from monadcalc.blowup import BlowupPoint
from monadcalc.eigen import _joint_key, joint_spectrum
from monadcalc.errors import check_invariant
from monadcalc.field import ONE, ZERO
from monadcalc.matrix import (Matrix, basis_extension, column_space,
                              hstack, inverse, kernel_basis, rank, solve, vstack)
from monadcalc.p2 import (DUPoint, MonadDataP2, evaluate_A,
                          evaluate_B, max_c_special, min_b_special)
from monadcalc.polymat import poly_matmul


def pencil(m, coords):
    """P1 = x1 - x3 a1, P2 = x2 - x3 a2, A = (P1; P2; c x3) and
    B = (-P2 | P1 | b x3) at the coordinates (x1, x2, x3), as they were
    built on ``QI`` entries: scaled, subtracted and stacked blocks."""
    x1, x2, x3 = coords
    eye = Matrix.identity(m.k)
    P1 = eye.scale(x1) - m.a1.scale(x3)
    P2 = eye.scale(x2) - m.a2.scale(x3)
    return (P1, P2, vstack([P1, P2, m.c.scale(x3)]),
            hstack([-P2, P1, m.b.scale(x3)]))


def coefficient_matrices(mt):
    """Coefficient matrices of A~ and B~ in the monomials x1,x2,x3,y1,y2."""
    k, r = mt.k, mt.r
    eye = Matrix.identity(k)
    zkk = Matrix.zeros(k, k)
    zrk = Matrix.zeros(r, k)
    zkr = Matrix.zeros(k, r)

    def col2(top_w0, top_w1, bot_w0, bot_w1, cr):
        return vstack([top_w0, top_w1, bot_w0, bot_w1, cr])

    A = {
        # column block 1 acts on W1, column block 2 on W0
        (0, 0, 1, 0, 0): hstack([col2(mt.a1, -(mt.d @ mt.a1), mt.a2,
                                      -(mt.d @ mt.a2), mt.c),
                                 col2(zkk, zkk, zkk, zkk, zrk)]),
        (1, 0, 0, 0, 0): hstack([col2(zkk, eye, zkk, zkk, zrk),
                                 col2(zkk, zkk, zkk, zkk, zrk)]),
        (0, 1, 0, 0, 0): hstack([col2(zkk, zkk, zkk, eye, zrk),
                                 col2(zkk, zkk, zkk, zkk, zrk)]),
        (0, 0, 0, 1, 0): hstack([col2(zkk, zkk, zkk, zkk, zrk),
                                 col2(zkk, zkk, eye, zkk, zrk)]),
        (0, 0, 0, 0, 1): hstack([col2(zkk, zkk, zkk, zkk, zrk),
                                 col2(-eye, zkk, zkk, zkk, zrk)]),
    }
    B = {
        (1, 0, 0, 0, 0): vstack([hstack([zkk, zkk, -eye, zkk, zkr]),
                                 hstack([zkk, zkk, zkk, zkk, zkr])]),
        (0, 1, 0, 0, 0): vstack([hstack([eye, zkk, zkk, zkk, zkr]),
                                 hstack([zkk, zkk, zkk, zkk, zkr])]),
        (0, 0, 1, 0, 0): vstack([hstack([zkk, mt.a2, zkk, -mt.a1, mt.b]),
                                 hstack([zkk, zkk, zkk, zkk, zkr])]),
        (0, 0, 0, 1, 0): vstack([hstack([zkk, zkk, zkk, zkk, zkr]),
                                 hstack([mt.d, eye, zkk, zkk, zkr])]),
        (0, 0, 0, 0, 1): vstack([hstack([zkk, zkk, zkk, zkk, zkr]),
                                 hstack([zkk, zkk, mt.d, eye, zkr])]),
    }
    return A, B


def _drop_zero(poly):
    return {m: M for m, M in poly.items() if not M.is_zero()}


def _mono_value(mono, vals):
    s = ONE
    for e, v in zip(mono, vals):
        for _ in range(e):
            s = s * v
    return s


def _evaluate(poly, vals, rows, cols):
    out = Matrix.zeros(rows, cols)
    for mono, M in _drop_zero(poly).items():
        out = out + M.scale(_mono_value(mono, vals))
    return out


def evaluate_A_blowup(mt, p: BlowupPoint) -> Matrix:
    vals = (*p.x.coords(), p.y1, p.y2)
    return _evaluate(coefficient_matrices(mt)[0], vals,
                     4 * mt.k + mt.r, 2 * mt.k)


def evaluate_B_blowup(mt, p: BlowupPoint) -> Matrix:
    vals = (*p.x.coords(), p.y1, p.y2)
    return _evaluate(coefficient_matrices(mt)[1], vals,
                     2 * mt.k, 4 * mt.k + mt.r)


def symbolic_blowup_product(mt):
    A, B = coefficient_matrices(mt)
    return poly_matmul(_drop_zero(B), _drop_zero(A))


def symbolic_monad_product(m):
    k, r = m.k, m.r
    eye = Matrix.identity(k)
    zkk = Matrix.zeros(k, k)
    zrk = Matrix.zeros(r, k)
    zkr = Matrix.zeros(k, r)
    A = {
        (1, 0, 0): vstack([eye, zkk, zrk]),
        (0, 1, 0): vstack([zkk, eye, zrk]),
        (0, 0, 1): vstack([-m.a1, -m.a2, m.c]),
    }
    B = {
        (1, 0, 0): hstack([zkk, eye, zkr]),
        (0, 1, 0): hstack([-eye, zkk, zkr]),
        (0, 0, 1): hstack([m.a2, -m.a1, m.b]),
    }
    return poly_matmul(B, A)


def fiber_dimension(A: Matrix, B: Matrix) -> int:
    return (B.cols - rank(B)) - rank(A)


def projection_matrix(k: int, r: int) -> Matrix:
    """(2k+r) x (4k+r) projection killing the two W0 blocks (W = W1)."""
    rows = 2 * k + r
    cols = 4 * k + r
    entries = [ZERO] * (rows * cols)

    def put(i, j):
        entries[i * cols + j] = ONE

    for t in range(k):
        put(t, k + t)            # first W1 block -> first W block
        put(k + t, 3 * k + t)    # second W1 block -> second W block
    for t in range(r):
        put(2 * k + t, 4 * k + t)
    return Matrix(rows, cols, entries)


def fiber_projection_check(mt, p: BlowupPoint) -> bool:
    """The fiber comparison with the explicit projection matrix."""
    from monadcalc.stratify import pushforward

    x = p.x
    q = BlowupPoint(x, x.x2, -x.x1)
    m = pushforward(mt)
    At, Bt = evaluate_A_blowup(mt, q), evaluate_B_blowup(mt, q)
    A, B = evaluate_A(m, x), evaluate_B(m, x)
    P = projection_matrix(mt.k, mt.r)

    Kt = kernel_basis(Bt)
    if not (B @ (P @ Kt.basis)).is_zero():
        return False
    if solve(A, P @ At) is None:
        return False
    if Kt.dim - rank(At) != fiber_dimension(A, B):
        return False
    ann = column_space(A).annihilator()
    cond = ann.basis.transpose() @ (P @ Kt.basis)
    return cond.cols - rank(cond) == rank(At)


# -- canonical reduction as a fixed-point loop ---------------------------

def _sub(M: Matrix, r0: int, r1: int, c0: int, c1: int) -> Matrix:
    return Matrix(r1 - r0, c1 - c0,
                  [M[i, j] for i in range(r0, r1) for j in range(c0, c1)])


def _split_top(m: MonadDataP2, V):
    """Conjugate so V occupies the first coordinates and cut into blocks.

    Returns ((top blocks a1, a2 on V), (bottom blocks on W/V), the
    transformed b, c) - callers decide which side is kept.
    """
    g = basis_extension(V)
    ginv = inverse(g)
    check_invariant(ginv is not None, "basis extension is singular")
    d, k = V.dim, m.k
    na1, na2 = ginv @ m.a1 @ g, ginv @ m.a2 @ g
    nb, nc = ginv @ m.b, m.c @ g
    # invariance of V makes the lower-left blocks vanish
    check_invariant(_sub(na1, d, k, 0, d).is_zero()
                    and _sub(na2, d, k, 0, d).is_zero(),
                    "split subspace is not invariant")
    top = (_sub(na1, 0, d, 0, d), _sub(na2, 0, d, 0, d))
    bottom = (_sub(na1, d, k, d, k), _sub(na2, d, k, d, k))
    return top, bottom, nb, nc, d


def canonical_reduction(m: MonadDataP2, eigen_mode: str = "exact") -> DUPoint:
    """Split off a maximal c-special subspace, else a minimal b-special
    one, until neither exists; then read the points off the discarded
    blocks."""
    if eigen_mode not in ("exact", "float"):
        raise ValueError("eigen_mode must be 'exact' or 'float'")
    delta_blocks = []
    current = m
    while True:
        Vc = max_c_special(current)
        if not Vc.is_zero():
            top, bottom, nb, nc, d = _split_top(current, Vc)
            k = current.k
            # discard the c-special block (eigenvalue points), keep the rest
            delta_blocks.append(top)
            current = MonadDataP2(bottom[0], bottom[1],
                                  _sub(nb, d, k, 0, current.r),
                                  _sub(nc, 0, current.r, d, k))
            continue
        Vb = min_b_special(current)
        if not Vb.is_full():
            top, bottom, nb, nc, d = _split_top(current, Vb)
            k = current.k
            # keep the b-special block, discard the induced quotient action
            delta_blocks.append(bottom)
            current = MonadDataP2(top[0], top[1],
                                  _sub(nb, 0, d, 0, current.r),
                                  _sub(nc, 0, current.r, 0, d))
            continue
        break
    approx = eigen_mode == "float"
    points = sorted((p for f1, f2 in delta_blocks
                     for p in joint_spectrum([f1, f2], approx)),
                    key=_joint_key)
    approx = approx and bool(points)
    return DUPoint(reduced=current, points=tuple(points), approx=approx)
