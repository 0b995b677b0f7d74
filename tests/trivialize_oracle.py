"""The Q(i) form of trivialization: a test oracle.

Before the frames ran on Gaussian-integer numerators, the pencil was
evaluated with ``Matrix`` arithmetic at the normalized projective point,
the two block solves and every identity check worked on ``QI`` entries,
and the frame's rank and the generic solve eliminated [A | S1] twice.
That path is kept here, as it was, so that the current code can be
compared against it.  Concentration is assumed, as in the private
builder it mirrors.

Before the frame's rank and the overlap identity were certified by
products and one small rank per point, each point's check stacked the
monad maps and the sections, eliminated the frame system [A | sections |
other sections] on the integer form and compared its generic solution
with (±xi1, 1).  :func:`verify_by_solve` keeps that check, and
:func:`stacked` the stacking.
"""

from typing import NamedTuple, Optional

from monadcalc import p2, trivialize
from monadcalc.errors import check_invariant
from monadcalc.matrix import (Matrix, _clear, _ZiMatrix, hstack, rank, solve,
                              vstack)


class Frames(NamedTuple):
    A: Matrix
    B: Matrix
    S1: Optional[Matrix]
    S2: Optional[Matrix]
    xi1: Optional[Matrix]

    def sections(self, chart):
        return self.S1 if chart == "U1" else self.S2


def monad_maps(m, q):
    """P1, P2, A and B at the projective point q, on ``QI`` entries."""
    x1, x2, x3 = q.coords()
    eye = Matrix.identity(m.k)
    P1 = eye.scale(x1) - m.a1.scale(x3)
    P2 = eye.scale(x2) - m.a2.scale(x3)
    return (P1, P2, vstack([P1, P2, m.c.scale(x3)]),
            hstack([-P2, P1, m.b.scale(x3)]))


def _solve_block(P, rhs):
    X = solve(P, rhs)
    check_invariant(X is not None, "a pencil block of nilpotent data is singular")
    return X


def frames(m, q) -> Frames:
    """U2 sections (x3 w, 0, 1), U1 sections (0, -x3 u_b, 1) and
    xi1 = x3 u_w at q, from w = P2^-1 b and u = P1^-1 [b | w]."""
    x1, x2, x3 = q.coords()
    k, r = m.k, m.r
    P1, P2, A, B = monad_maps(m, q)
    zero, eye = Matrix.zeros(k, r), Matrix.identity(r)
    S1 = S2 = xi1 = None
    rhs = m.b
    if not x2.is_zero():
        w = _solve_block(P2, m.b)
        S2 = vstack([w.scale(x3), zero, eye])
        rhs = hstack([m.b, w])
    if not x1.is_zero():
        u = _solve_block(P1, rhs)
        S1 = vstack([zero, u.submatrix(range(k), range(r)).scale(-x3), eye])
        if S2 is not None:
            xi1 = u.submatrix(range(k), range(r, 2 * r)).scale(x3)
    return Frames(A, B, S1, S2, xi1)


def section(m, i, p):
    """Section i of p's own chart."""
    return frames(m, p.projective()).sections(p.chart).col_matrix(i - 1)


def frame_matrix(m, p):
    f = frames(m, p.projective())
    return hstack([f.A, f.sections(p.chart)])


def transition_xi1(m, i, p):
    """xi1 for framing index i at a U1 overlap point p."""
    return frames(m, p.projective()).xi1.col_matrix(i - 1)


def verify(m, sample_points) -> bool:
    """The per-point identity checks of verify_trivialization."""
    if m.k == 0 and m.r == 0:
        return True
    for p in sample_points:
        f = frames(m, p.projective())
        S = f.sections(p.chart)
        F = hstack([f.A, S])
        if not (f.B @ S).is_zero() or rank(F) != m.k + m.r:
            return False
        if f.xi1 is None:
            continue  # off the overlap U1 ∩ U2
        if not ((f.S2 - f.S1 - f.A @ f.xi1).is_zero() and
                (m.c @ f.xi1).is_zero()):
            return False
        generic = solve(F if p.chart == "U1" else hstack([f.A, f.S1]), f.S2)
        if generic is None or generic != vstack([f.xi1, Matrix.identity(m.r)]):
            return False
    return True


def stacked(t, f, coords):
    """The stacked forms of the frames f of ``trivialize._frames`` at
    coords: A = (P1; P2; c x3), B = (-P2 | P1 | b x3), and the sections
    (0, Z, 1) and (Y, 0, 1) (None off their charts)."""
    (_, _, x3), e = _clear(coords)
    k, r = t.k, t.r
    zero, eye = _ZiMatrix.zeros(k, r), _ZiMatrix.identity(r)
    A = _ZiMatrix.vstack([f.P1, f.P2, t.c.scale(x3, e)])
    B = _ZiMatrix.hstack([-f.P2, f.P1, t.b.scale(x3, e)])
    S1 = None if f.Z is None else _ZiMatrix.vstack([zero, f.Z, eye])
    S2 = None if f.Y is None else _ZiMatrix.vstack([f.Y, zero, eye])
    return A, B, S1, S2


def verify_by_solve(m, sample_points) -> bool:
    """The per-point checks of verify_trivialization on Gaussian-integer
    forms, on the stacked monad maps and sections, with one elimination
    per point: of [A | S | T] on the overlap, whose pivots give the
    frame's rank and whose generic solution must be (xi1, 1) on U1 and
    (-xi1, 1) on U2, and of [A | S] off it.  The blocks are read through
    ``trivialize._frames`` when called, so a test that patches it reaches
    this path too; each point's coordinates are cleared here, not read
    from the point."""
    t = p2._integer(m)
    W = trivialize._words(t)
    k, r = m.k, m.r
    eye = _ZiMatrix.identity(r)
    for p in sample_points:
        f = trivialize._frames(t, W, *_clear(p.coords()))
        A, B, S1, S2 = stacked(t, f, p.coords())
        S, T = (S1, S2) if p.chart == "U1" else (S2, S1)
        if not (B @ S).is_zero():
            return False
        F = _ZiMatrix.hstack([A, S])
        if f.xi1 is None:  # off the overlap U1 ∩ U2
            if F.rank() != k + r:
                return False
            continue
        rank_, generic = F.solve(T)
        xi = f.xi1 if p.chart == "U1" else -f.xi1
        if rank_ != k + r or generic != _ZiMatrix.vstack([xi, eye]):
            return False
    return True
