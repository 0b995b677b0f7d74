"""Explicit trivialization of the monad sheaf away from [0:0:1].

For tuples whose charge is concentrated at the origin (a1, a2 nilpotent,
all words c a1^.. a2^.. b vanishing) the sheaf is free on the complement
of [0:0:1]; this module builds the kernel-valued frame sections on the
two charts U1 = {x1 != 0}, U2 = {x2 != 0}, the full-rank frame matrices,
and the exact transition solution on the overlap.

Concentration is checked once per public call, through
:func:`p2.is_concentrated_at_origin`; the private builder assumes it.
It works at a point q = [x1 : x2 : x3], on the pencil blocks
P1 = x1 - x3 a1 and P2 = x2 - x3 a2, which are the first two blocks of
A(q) = (P1; P2; c x3) and, as (-P2 | P1 | b x3), of B(q).  They are
invertible wherever x1 resp. x2 is nonzero, because a1 and a2 are
nilpotent.  With w = P2^-1 b and u = P1^-1 [b | w] = [u_b | u_w]:

  U2 sections    (x3 w, 0, 1)       where x2 != 0
  U1 sections    (0, -x3 u_b, 1)    where x1 != 0
  transition     xi1 = x3 u_w       on the overlap

Rescaling q by t leaves x3 w and x3 u_b unchanged, scales A and B by t
and xi1 by 1/t, so every identity that :func:`verify_trivialization`
checks holds at q exactly when it holds at tq.  The sections equal the
chart closed forms (see :func:`section_s1`, :func:`section_s2`); at
[1 : alpha2 : alpha3] xi1 equals the closed form of
:func:`transition_xi`.  A point thus costs two solves: no resolvent
inverse, and no frame rebuilt in the other chart's coordinates.  All r
framing indices are treated at once: the sections at a point are the
columns of one (2k+r) x r matrix and the transition data the columns of
one k x r matrix, so the per-index helpers are column extractions and
:func:`verify_trivialization` checks every identity as a matrix
identity.

The frames are built, and verified, on Gaussian-integer numerators over
one integer denominator (``matrix._ZiMatrix``; the tuple is converted
once by ``p2._integer`` and evaluated by ``p2._pencil``): between the
concentration check and the verdict no ``QI`` value is built.  Only the
public helpers convert their result to ``Matrix``.

Block convention: a kernel vector is (first W block, second W block,
C^r block) in the column order of B, so the b-dependent part of the U1
section sits in the SECOND W block (this is what makes B . s = 0 hold;
see the tests for the k=1 witness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import (InvalidPoint, MonadcalcError, OverlapViolation,
                     check_invariant)
from .field import ONE, QI, qi
from .matrix import Matrix, _clear, _ZiMatrix
from .p2 import (MonadDataP2, ProjectivePoint, _integer, _pencil,
                 is_concentrated_at_origin)


class NotConcentrated(MonadcalcError):
    """Trivialization requested for data not concentrated at the origin."""


@dataclass(frozen=True)
class ChartPoint:
    """A point of U1 or U2 in affine chart coordinates.

    U1: (alpha2, alpha3) -> [1 : alpha2 : alpha3]
    U2: (beta1, beta3)   -> [beta1 : 1 : beta3]
    """

    chart: str  # "U1" or "U2"
    coord_a: QI
    coord_b: QI

    def __post_init__(self):
        if self.chart not in ("U1", "U2"):
            raise InvalidPoint("chart must be 'U1' or 'U2'")
        object.__setattr__(self, "coord_a", qi(self.coord_a))
        object.__setattr__(self, "coord_b", qi(self.coord_b))

    def coords(self) -> Tuple[QI, QI, QI]:
        """Homogeneous coordinates with the chart's coordinate set to 1."""
        if self.chart == "U1":
            return (ONE, self.coord_a, self.coord_b)
        return (self.coord_a, ONE, self.coord_b)

    def projective(self) -> ProjectivePoint:
        return ProjectivePoint(*self.coords())


def _require_concentrated(m: MonadDataP2):
    if not is_concentrated_at_origin(m):
        raise NotConcentrated(
            "sections need nilpotent a1, a2 and vanishing word products")


def _check_index(m: MonadDataP2, i: int):
    if not 1 <= i <= m.r:
        raise IndexError(f"framing index {i} outside 1..{m.r}")


class _Frames(NamedTuple):
    """The monad maps and the frame data at one point, as Gaussian-integer
    forms.

    S1 (the U1 sections) is None where x1 = 0, S2 (the U2 sections)
    where x2 = 0, and xi1 (the transition) off the overlap U1 ∩ U2.
    """

    A: _ZiMatrix
    B: _ZiMatrix
    S1: Optional[_ZiMatrix]
    S2: Optional[_ZiMatrix]
    xi1: Optional[_ZiMatrix]

    def sections(self, chart: str) -> _ZiMatrix:
        return self.S1 if chart == "U1" else self.S2


def _solve_block(P: _ZiMatrix, rhs: _ZiMatrix) -> _ZiMatrix:
    X = P.solve(rhs)[1]
    check_invariant(X is not None, "a pencil block of nilpotent data is singular")
    return X


def _frames(t: MonadDataP2, coords: Sequence[QI]) -> _Frames:
    """Every frame of the tuple t of integer forms (``p2._integer``) at
    [x1 : x2 : x3] = coords, all r framing indices at once, from two
    solves.

    w = P2^-1 b where x2 != 0 and u = P1^-1 [b | w] = [u_b | u_w] where
    x1 != 0 give the U2 sections (x3 w, 0, 1), the U1 sections
    (0, -x3 u_b, 1) and, on the overlap, xi1 = x3 u_w.
    """
    x, e = _clear(coords)
    x1, x2, x3 = x
    b = t.b
    k, r = b.rows, b.cols
    P1, P2, A, B = _pencil(t, x, e)
    zero, eye = _ZiMatrix.zeros(k, r), _ZiMatrix.identity(r)
    S1 = S2 = xi1 = None
    rhs = b
    if x2 != (0, 0):
        w = _solve_block(P2, b)
        S2 = _ZiMatrix.vstack([w.scale(x3, e), zero, eye])
        rhs = _ZiMatrix.hstack([b, w])
    if x1 != (0, 0):
        u = _solve_block(P1, rhs)
        S1 = _ZiMatrix.vstack(
            [zero, -u.submatrix(range(k), range(r)).scale(x3, e), eye])
        if S2 is not None:
            xi1 = u.submatrix(range(k), range(r, 2 * r)).scale(x3, e)
    return _Frames(A, B, S1, S2, xi1)


def _section(m: MonadDataP2, i: int, p: ChartPoint, chart: str) -> Matrix:
    _require_concentrated(m)
    _check_index(m, i)
    if p.chart != chart:
        raise InvalidPoint(f"section_s{chart[1]} is defined on {chart} chart points")
    S = _frames(_integer(m), p.coords()).sections(chart)
    return S.submatrix(range(S.rows), [i - 1]).matrix()


def section_s1(m: MonadDataP2, i: int, p: ChartPoint) -> Matrix:
    """U1 frame section (0, -alpha3 (1 - alpha3 a1)^-1 b e_i, e_i)."""
    return _section(m, i, p, "U1")


def section_s2(m: MonadDataP2, i: int, p: ChartPoint) -> Matrix:
    """U2 frame section (beta3 (1 - beta3 a2)^-1 b e_i, 0, e_i)."""
    return _section(m, i, p, "U2")


def frame_matrix(m: MonadDataP2, p: ChartPoint) -> Matrix:
    """The (2k+r) x (k+r) matrix [A(p) | sections]; full column rank.

    A is taken at the normalized point :meth:`ChartPoint.projective`.
    On U1 this is the display with top block 1 - alpha3 a1; invertibility
    of that block (a1 nilpotent) forces maximal rank at every chart point.
    """
    _require_concentrated(m)
    f = _frames(_integer(m), p.projective().coords())
    return _ZiMatrix.hstack([f.A, f.sections(p.chart)]).matrix()


def transition_xi(m: MonadDataP2, i: int, alpha2: QI, alpha3: QI) -> Tuple[Matrix, Matrix]:
    """The overlap solution of frame_U1 . (xi1, xi2) = s2.

    xi1 = alpha3 (1 - alpha3 a1)^-1 (alpha2 - alpha3 a2)^-1 b e_i and
    xi2 = e_i; consequently s2 - s1 = A . xi1 on U1 ∩ U2 (with the chart
    identification beta1 = 1/alpha2, beta3 = alpha3/alpha2) and c xi1 = 0.
    """
    _require_concentrated(m)
    _check_index(m, i)
    alpha2, alpha3 = qi(alpha2), qi(alpha3)
    if alpha2.is_zero():
        raise OverlapViolation("alpha2 = 0 lies outside U1 ∩ U2")
    xi1 = _frames(_integer(m), (ONE, alpha2, alpha3)).xi1
    return (xi1.submatrix(range(m.k), [i - 1]).matrix(),
            Matrix.identity(m.r).col_matrix(i - 1))


def default_sample_points(n: int) -> List[ChartPoint]:
    """Deterministic small-rational chart points, always including
    alpha3 = 0 and an overlap point.  Raises ValueError for n < 0."""
    import random

    if n < 0:
        raise ValueError(f"the number of sample points must be nonnegative, got {n}")
    rng = random.Random(11)
    pts = [ChartPoint("U1", qi(1), qi(0)), ChartPoint("U1", qi(1), qi(1))]
    while len(pts) < n:
        num = lambda: qi(rng.randint(-6, 6), rng.randint(-2, 2))
        a2 = num()
        if a2.is_zero():
            a2 = qi(1)
        pts.append(ChartPoint("U1", a2, num()))
    return pts[:n]


def verify_trivialization(m: MonadDataP2,
                          sample_points: Optional[Sequence[ChartPoint]] = None,
                          n_samples: int = 10) -> bool:
    """Exact verification of the trivialization identities on samples.

    Concentration is checked once, here.  At each sample point all r
    sections of its chart lie in Ker B and the frame [A | sections] has
    full column rank; on the overlap the transition identity
    s2 - s1 = A xi1 holds with c xi1 = 0, and an independent generic
    solve of the point's frame against the other chart's sections gives
    (xi1, 1) on U1 (frame_U1 . xi = s2) and (-xi1, 1) on U2
    (frame_U2 . eta = s1).  Each identity is checked for all r framing
    indices at once, at the point's chart coordinates (the identities
    are invariant under rescaling the point), on Gaussian-integer
    numerators: per point one evaluation of the monad maps, two block
    solves and one elimination of [A | sections | other sections], which
    gives the frame's rank and the generic solve together.

    Raises ValueError when there is no point to check: n_samples < 1
    without sample_points, or an empty sample_points.
    """
    if sample_points is None:
        if n_samples < 1:
            raise ValueError(f"n_samples must be at least 1, got {n_samples}")
        sample_points = default_sample_points(n_samples)
    elif not sample_points:
        raise ValueError("sample_points is empty")
    _require_concentrated(m)
    k, r = m.k, m.r
    t, eye = _integer(m), _ZiMatrix.identity(r)
    for p in sample_points:
        f = _frames(t, p.coords())
        S, T = (f.S1, f.S2) if p.chart == "U1" else (f.S2, f.S1)
        if not (f.B @ S).is_zero():
            return False
        F = _ZiMatrix.hstack([f.A, S])
        if f.xi1 is None:  # off the overlap U1 ∩ U2
            if F.rank() != k + r:
                return False
            continue
        rank, generic = F.solve(T)
        if rank != k + r:
            return False
        if not ((f.S2 - f.S1 - f.A @ f.xi1).is_zero() and
                (t.c @ f.xi1).is_zero()):
            return False
        xi = f.xi1 if p.chart == "U1" else -f.xi1
        if generic is None or generic != _ZiMatrix.vstack([xi, eye]):
            return False
    return True
