"""Monad data on the blowup of the plane.

A 5-tuple (a1, a2, d, b, c) with a_i: W1 -> W0, d: W0 -> W1,
b: C^r -> W0, c: W1 -> C^r, subject to a1 d a2 - a2 d a1 + b c = 0 and
a1(W1) + a2(W1) + b(C^r) = W0.  Points of the blowup carry homogeneous
coordinates ([x1:x2:x3], [y1:y2]) with x1 y1 + x2 y2 = 0; the
exceptional line is x1 = x2 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (DimensionMismatch, IntegrabilityViolation, InvalidPoint,
                     PointOnExceptionalLine, SingularGroupElement,
                     SurjectivityViolation)
from .field import ONE, QI, ZERO, qi
from .matrix import (Matrix, column_space, hstack, inverse, kernel_basis,
                     rank, solve, vstack)
from .p2 import ProjectivePoint, evaluate_A, evaluate_B
from .polymat import PolyMatrix, poly_matmul


@dataclass(frozen=True)
class MonadDataBlowup:
    """Raw blowup monad tuple; dimensions checked, validity conditions not.

    dim W0 = dim W1 = k is enforced structurally.  Use :func:`validate`
    to check integrability and surjectivity.
    """

    a1: Matrix
    a2: Matrix
    d: Matrix
    b: Matrix
    c: Matrix

    def __post_init__(self):
        k, r = self.k, self.r
        for name, M in (("a1", self.a1), ("a2", self.a2), ("d", self.d)):
            if M.rows != k or M.cols != k:
                raise DimensionMismatch(f"{name} must be {k}x{k}")
        if self.b.rows != k or self.c.cols != k or self.c.rows != r:
            raise DimensionMismatch("b must be k x r and c must be r x k")

    @property
    def k(self) -> int:
        return self.a1.rows

    @property
    def r(self) -> int:
        return self.b.cols


def blowup_defect(mt: MonadDataBlowup) -> Matrix:
    """a1 d a2 - a2 d a1 + b c, zero exactly for integrable tuples."""
    return mt.a1 @ mt.d @ mt.a2 - mt.a2 @ mt.d @ mt.a1 + mt.b @ mt.c


def surjectivity_corank(mt: MonadDataBlowup) -> int:
    """Codimension of a1(W1) + a2(W1) + b(C^r) inside W0."""
    return mt.k - rank(hstack([mt.a1, mt.a2, mt.b]))


def validate(mt: MonadDataBlowup) -> MonadDataBlowup:
    defect = blowup_defect(mt)
    if not defect.is_zero():
        raise IntegrabilityViolation(defect)
    corank = surjectivity_corank(mt)
    if corank != 0:
        raise SurjectivityViolation(corank)
    return mt


def is_valid(mt: MonadDataBlowup) -> bool:
    return blowup_defect(mt).is_zero() and surjectivity_corank(mt) == 0


def act2(g0: Matrix, g1: Matrix, mt: MonadDataBlowup) -> MonadDataBlowup:
    """The GL(W0) x GL(W1) action:
    (a1, a2, b, c, d) -> (g0^-1 a1 g1, g0^-1 a2 g1, g0^-1 b, c g1, g1^-1 d g0).
    """
    g0inv, g1inv = inverse(g0), inverse(g1)
    if g0inv is None or g1inv is None:
        raise SingularGroupElement("group element is not invertible")
    return MonadDataBlowup(g0inv @ mt.a1 @ g1, g0inv @ mt.a2 @ g1,
                           g1inv @ mt.d @ g0, g0inv @ mt.b, mt.c @ g1)


class BlowupPoint:
    """A point ([x1:x2:x3], [y1:y2]) on the incidence locus x1 y1 + x2 y2 = 0.

    The y-pair is normalized so its first nonzero coordinate is 1.  Off
    the exceptional line the incidence relation pins [y1:y2] down; on it
    (x = [0:0:1]) the y-line is free.
    """

    __slots__ = ("x", "y1", "y2")

    def __init__(self, x: ProjectivePoint, y1, y2):
        y1, y2 = qi(y1), qi(y2)
        if y1.is_zero() and y2.is_zero():
            raise InvalidPoint("y coordinates cannot both vanish")
        if not (x.x1 * y1 + x.x2 * y2).is_zero():
            raise InvalidPoint("point violates the incidence relation")
        s = (y1 if not y1.is_zero() else y2).inverse()
        self.x = x
        self.y1, self.y2 = s * y1, s * y2

    @classmethod
    def over(cls, x: ProjectivePoint) -> "BlowupPoint":
        """The unique point over x for x off the exceptional line."""
        if x.x1.is_zero() and x.x2.is_zero():
            raise PointOnExceptionalLine("y-line is not determined over [0:0:1]")
        return cls(x, x.x2, -x.x1)

    def on_exceptional_line(self) -> bool:
        return self.x.x1.is_zero() and self.x.x2.is_zero()

    def __repr__(self):
        return f"BlowupPoint({self.x!r}, [{self.y1!r}:{self.y2!r}])"


@lru_cache(maxsize=256)
def _coefficient_matrices(mt: MonadDataBlowup):
    """Coefficient matrices of A~ and B~ in the monomials x1,x2,x3,y1,y2."""
    k, r = mt.k, mt.r
    eye = Matrix.identity(k)
    zkk = Matrix.zeros(k, k)
    zrk = Matrix.zeros(r, k)
    zkr = Matrix.zeros(k, r)

    def col2(top_w0, top_w1, bot_w0, bot_w1, cr):
        return vstack([top_w0, top_w1, bot_w0, bot_w1, cr])

    A: PolyMatrix = {
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
    B: PolyMatrix = {
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


def _drop_zero(poly: PolyMatrix) -> PolyMatrix:
    return {m: M for m, M in poly.items() if not M.is_zero()}


def evaluate_A_blowup(mt: MonadDataBlowup, p: BlowupPoint) -> Matrix:
    """The (4k+r) x 2k blowup monad map at p."""
    A, _ = _coefficient_matrices(mt)
    x1, x2, x3 = p.x.coords()
    vals = (x1, x2, x3, p.y1, p.y2)
    out = Matrix.zeros(4 * mt.k + mt.r, 2 * mt.k)
    for mono, M in _drop_zero(A).items():
        s = _mono_value(mono, vals)
        out = out + M.scale(s)
    return out


def evaluate_B_blowup(mt: MonadDataBlowup, p: BlowupPoint) -> Matrix:
    """The 2k x (4k+r) blowup monad map at p."""
    _, B = _coefficient_matrices(mt)
    x1, x2, x3 = p.x.coords()
    vals = (x1, x2, x3, p.y1, p.y2)
    out = Matrix.zeros(2 * mt.k, 4 * mt.k + mt.r)
    for mono, M in _drop_zero(B).items():
        s = _mono_value(mono, vals)
        out = out + M.scale(s)
    return out


def _mono_value(mono, vals) -> QI:
    s = ONE
    for e, v in zip(mono, vals):
        for _ in range(e):
            s = s * v
    return s


def symbolic_blowup_product(mt: MonadDataBlowup) -> PolyMatrix:
    """B~ A~ as a polynomial in (x1, x2, x3, y1, y2).

    For every raw tuple this is the 2x2 block matrix
    [[defect * x3^2, -sigma], [sigma, 0]] with sigma = x1 y1 + x2 y2,
    so it vanishes on the incidence locus iff the tuple is integrable.
    """
    A, B = _coefficient_matrices(mt)
    return poly_matmul(_drop_zero(B), _drop_zero(A))


def fiber_dimension_blowup(mt: MonadDataBlowup, p: BlowupPoint) -> int:
    A = evaluate_A_blowup(mt, p)
    B = evaluate_B_blowup(mt, p)
    return (B.cols - rank(B)) - rank(A)


def _projection_matrix(k: int, r: int) -> Matrix:
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


def fiber_projection_check(mt: MonadDataBlowup, p: BlowupPoint) -> bool:
    """Verify that forgetting the W0 blocks identifies the fibers of the
    blowup monad and of its pushforward at a point off the exceptional line.

    Uses the rescaled section values y1 = x2, y2 = -x1 (legitimate off
    the exceptional line) and checks: Ker B~ maps into Ker B, Im A~ maps
    into Im A, and the induced map on monad cohomology fibers is an
    isomorphism.
    """
    from .stratify import pushforward

    if p.on_exceptional_line():
        raise PointOnExceptionalLine("fiber comparison needs x1, x2 not both 0")
    x = p.x
    q = BlowupPoint(x, x.x2, -x.x1)
    k, r = mt.k, mt.r
    m = pushforward(mt)
    At, Bt = evaluate_A_blowup(mt, q), evaluate_B_blowup(mt, q)
    A, B = evaluate_A(m, x), evaluate_B(m, x)
    P = _projection_matrix(k, r)

    Kt = kernel_basis(Bt)
    # 1. P maps Ker B~ into Ker B.
    if not (B @ (P @ Kt.basis)).is_zero():
        return False
    # 2. P maps Im A~ into Im A.
    if solve(A, P @ At) is None:
        return False
    # 3. The induced map on fibers is injective and dimensions agree.
    dim_fiber_t = Kt.dim - rank(At)
    dim_fiber = (B.cols - rank(B)) - rank(A)
    if dim_fiber_t != dim_fiber:
        return False
    # Preimage of Im A inside Ker B~: parametrize v = Kt.basis @ t and
    # require P v to be annihilated by the annihilator of Im A.
    ann = column_space(A).annihilator()
    cond = ann.basis.transpose() @ (P @ Kt.basis)
    preimage_dim = cond.cols - rank(cond)
    return preimage_dim == rank(At)
