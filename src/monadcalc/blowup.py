"""Monad data on the blowup of the plane.

A 5-tuple (a1, a2, d, b, c) with a_i: W1 -> W0, d: W0 -> W1,
b: C^r -> W0, c: W1 -> C^r, subject to a1 d a2 - a2 d a1 + b c = 0 and
a1(W1) + a2(W1) + b(C^r) = W0.  Points of the blowup carry homogeneous
coordinates ([x1:x2:x3], [y1:y2]) with x1 y1 + x2 y2 = 0; the
exceptional line is x1 = x2 = 0.

The monad W1 + W0 --A~--> W0 + W1 + W0 + W1 + C^r --B~--> W0 + W1 is
defined here once, by the blocks of its two maps (a coordinate alone
stands for that multiple of the identity):

    A~ = [[x3 a1,          -y2],
          [x1 - d (x3 a1),   0],
          [x3 a2,           y1],
          [x2 - d (x3 a2),   0],
          [x3 c,             0]]

    B~ = [[x2,   x3 a2, -x1,   -x3 a1, x3 b],
          [y1 d, y1,     y2 d,  y2,    0   ]]

Both maps are linear in (x1, x2, x3, y1, y2), so their symbolic forms
are read off the same evaluators: the coefficient of a coordinate is
the map's value at that coordinate's unit point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (IntegrabilityViolation, InvalidPoint, PointOnExceptionalLine,
                     SingularGroupElement, SurjectivityViolation)
from .field import qi
from .matrix import (Matrix, _ZiMatrix, block, hstack, kernel_basis, rank,
                     solve)
from .p2 import (ProjectivePoint, _fiber_dim, _integer, _MonadData, _rational,
                 monad_maps)
from .polymat import PolyMatrix, linear_polymatrix, poly_matmul


@dataclass(frozen=True)
class MonadDataBlowup(_MonadData):
    """Raw blowup monad tuple; dimensions checked, validity conditions not.

    dim W0 = dim W1 = k is enforced structurally, by the shape check the
    plane tuple shares (``p2._MonadData``).  Use :func:`validate` to
    check integrability and surjectivity.
    """

    a1: Matrix
    a2: Matrix
    d: Matrix
    b: Matrix
    c: Matrix


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


def act2(g0: Matrix, g1: Matrix, mt: MonadDataBlowup) -> MonadDataBlowup:
    """The GL(W0) x GL(W1) action:
    (a1, a2, b, c, d) -> (g0^-1 a1 g1, g0^-1 a2 g1, g0^-1 b, c g1, g1^-1 d g0).

    The products run on the integer form ``matrix._ZiMatrix``.
    """
    G0, G1 = _ZiMatrix.of(g0), _ZiMatrix.of(g1)
    G0inv, G1inv = G0.inverse(), G1.inverse()
    if G0inv is None or G1inv is None:
        raise SingularGroupElement("group element is not invertible")
    t = _integer(mt)
    return _rational(MonadDataBlowup(G0inv @ t.a1 @ G1, G0inv @ t.a2 @ G1,
                                     G1inv @ t.d @ G0, G0inv @ t.b, t.c @ G1))


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


def _a_tilde(mt: MonadDataBlowup, x1, x2, x3, y1, y2) -> Matrix:
    """A~ at raw coordinates, laid out as in the module docstring."""
    k = mt.k
    eye, zero = Matrix.identity(k), Matrix.zeros(k, k)
    xa1, xa2 = mt.a1.scale(x3), mt.a2.scale(x3)
    return block([[xa1, eye.scale(-y2)],
                  [eye.scale(x1) - mt.d @ xa1, zero],
                  [xa2, eye.scale(y1)],
                  [eye.scale(x2) - mt.d @ xa2, zero],
                  [mt.c.scale(x3), Matrix.zeros(mt.r, k)]])


def _b_tilde(mt: MonadDataBlowup, x1, x2, x3, y1, y2) -> Matrix:
    """B~ at raw coordinates, laid out as in the module docstring."""
    eye = Matrix.identity(mt.k)
    return block([[eye.scale(x2), mt.a2.scale(x3), eye.scale(-x1),
                   mt.a1.scale(-x3), mt.b.scale(x3)],
                  [mt.d.scale(y1), eye.scale(y1), mt.d.scale(y2),
                   eye.scale(y2), Matrix.zeros(mt.k, mt.r)]])


def evaluate_A_blowup(mt: MonadDataBlowup, p: BlowupPoint) -> Matrix:
    """The (4k+r) x 2k blowup monad map at p."""
    return _a_tilde(mt, *p.x.coords(), p.y1, p.y2)


def evaluate_B_blowup(mt: MonadDataBlowup, p: BlowupPoint) -> Matrix:
    """The 2k x (4k+r) blowup monad map at p."""
    return _b_tilde(mt, *p.x.coords(), p.y1, p.y2)


def symbolic_blowup_product(mt: MonadDataBlowup) -> PolyMatrix:
    """B~ A~ as a polynomial in (x1, x2, x3, y1, y2).

    For every raw tuple this is the 2x2 block matrix
    [[defect * x3^2, -sigma], [sigma, 0]] with sigma = x1 y1 + x2 y2,
    so it vanishes on the incidence locus iff the tuple is integrable.
    """
    units = [[int(i == j) for j in range(5)] for i in range(5)]
    return poly_matmul(linear_polymatrix([_b_tilde(mt, *u) for u in units]),
                       linear_polymatrix([_a_tilde(mt, *u) for u in units]))


def fiber_projection_check(mt: MonadDataBlowup, p: BlowupPoint) -> bool:
    """Verify that forgetting the W0 blocks identifies the fibers of the
    blowup monad and of its pushforward at a point off the exceptional line.

    Off the exceptional line p's y-values are [x2 : -x1], fixed by x.
    Checks: Ker B~ maps into Ker B, Im A~ maps into Im A, and the
    induced map on monad cohomology fibers is an isomorphism.
    """
    from .stratify import pushforward

    if p.on_exceptional_line():
        raise PointOnExceptionalLine("fiber comparison needs x1, x2 not both 0")
    m = pushforward(mt)
    At, Bt = evaluate_A_blowup(mt, p), evaluate_B_blowup(mt, p)
    A, B = monad_maps(m, p.x)
    # forgetting the W0 blocks keeps the rows of W1, W1 and C^r
    keep = [*range(mt.k, 2 * mt.k), *range(3 * mt.k, 4 * mt.k + mt.r)]
    Kt = kernel_basis(Bt)
    PK = Kt.basis.submatrix(keep, range(Kt.dim))
    # Checks 1 and 2 hold for every raw tuple by the block algebra, so they
    # never decide for a correct pushforward; they guard stratify.pushforward.
    # 1. The projection maps Ker B~ into Ker B.
    if not (B @ PK).is_zero():
        return False
    # 2. It maps Im A~ into Im A.
    if solve(A, At.submatrix(keep, range(At.cols))) is None:
        return False
    # 3. The induced map on fibers is injective and dimensions agree.
    rank_At = rank(At)
    if Kt.dim - rank_At != _fiber_dim(A, B):
        return False
    # Preimage of Im A inside Ker B~: parametrize v = Kt.basis @ t and
    # require the projection of v to be annihilated by the annihilator
    # of Im A, which is Ker A^T.
    cond = kernel_basis(A.transpose()).basis.transpose() @ PK
    return cond.cols - rank(cond) == rank_At
