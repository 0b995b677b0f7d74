"""Explicit trivialization of the monad sheaf away from [0:0:1].

For tuples whose charge is concentrated at the origin (a1, a2 nilpotent,
all words c a1^.. a2^.. b vanishing) the sheaf is free on the complement
of [0:0:1]; this module builds the kernel-valued frame sections on the
two charts U1 = {x1 != 0}, U2 = {x2 != 0}, the full-rank frame matrices,
and the exact transition solution on the overlap.

Concentration is checked once per public call, through
:func:`p2.is_concentrated_at_origin`; the private builders assume it.
They treat all r framing indices at once: the sections at a point are
the columns of one (2k+r) x r matrix and the transition data the columns
of one k x r matrix, so the per-index helpers are column extractions and
:func:`verify_trivialization` checks every identity as a matrix identity.

Block convention: a kernel vector is (first W block, second W block,
C^r block) in the column order of B, so the b-dependent part of the U1
section sits in the SECOND W block (this is what makes B . s = 0 hold;
see the tests for the k=1 witness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import (InvalidPoint, MonadcalcError, OverlapViolation,
                     check_invariant)
from .field import ONE, QI, qi
from .matrix import Matrix, hstack, inverse, rank, solve, vstack
from .p2 import (MonadDataP2, ProjectivePoint, evaluate_A, evaluate_B,
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

    def projective(self) -> ProjectivePoint:
        if self.chart == "U1":
            return ProjectivePoint(ONE, self.coord_a, self.coord_b)
        return ProjectivePoint(self.coord_a, ONE, self.coord_b)


def _require_concentrated(m: MonadDataP2):
    if not is_concentrated_at_origin(m):
        raise NotConcentrated(
            "sections need nilpotent a1, a2 and vanishing word products")


def _check_index(m: MonadDataP2, i: int):
    if not 1 <= i <= m.r:
        raise IndexError(f"framing index {i} outside 1..{m.r}")


def _frame(m: MonadDataP2, p: ChartPoint) -> Tuple[Matrix, Matrix]:
    """The chart resolvent R and all r sections at p as the columns of one
    (2k+r) x r matrix: U1 (0, -alpha3 R b, 1), U2 (beta3 R b, 0, 1).

    R = (1 - t a)^-1 with (a, t) = (a1, alpha3) on U1 and (a2, beta3) on
    U2; it exists for every t since a is nilpotent.
    """
    t, on_u1 = p.coord_b, p.chart == "U1"
    R = inverse(Matrix.identity(m.k) - (m.a1 if on_u1 else m.a2).scale(t))
    check_invariant(R is not None, "resolvent of a nilpotent matrix is singular")
    Rb, zero = R @ m.b, Matrix.zeros(m.k, m.r)
    w = [zero, Rb.scale(-t)] if on_u1 else [Rb.scale(t), zero]
    return R, vstack(w + [Matrix.identity(m.r)])


def _transition(m: MonadDataP2, R1: Matrix, alpha2: QI, alpha3: QI) -> Matrix:
    """xi1 for all r framing indices: alpha3 R1 (alpha2 - alpha3 a2)^-1 b,
    with R1 the U1 resolvent at alpha3."""
    shifted_b = solve(Matrix.identity(m.k).scale(alpha2) - m.a2.scale(alpha3), m.b)
    check_invariant(shifted_b is not None, "alpha2 - alpha3 a2 is singular")
    return (R1 @ shifted_b).scale(alpha3)


def _section(m: MonadDataP2, i: int, p: ChartPoint, chart: str) -> Matrix:
    _require_concentrated(m)
    _check_index(m, i)
    if p.chart != chart:
        raise InvalidPoint(f"section_s{chart[1]} is defined on {chart} chart points")
    return _frame(m, p)[1].col_matrix(i - 1)


def section_s1(m: MonadDataP2, i: int, p: ChartPoint) -> Matrix:
    """U1 frame section (0, -alpha3 (1 - alpha3 a1)^-1 b e_i, e_i)."""
    return _section(m, i, p, "U1")


def section_s2(m: MonadDataP2, i: int, p: ChartPoint) -> Matrix:
    """U2 frame section (beta3 (1 - beta3 a2)^-1 b e_i, 0, e_i)."""
    return _section(m, i, p, "U2")


def frame_matrix(m: MonadDataP2, p: ChartPoint) -> Matrix:
    """The (2k+r) x (k+r) matrix [A(p) | sections]; full column rank.

    On U1 this is the display with top block 1 - alpha3 a1; invertibility
    of that block (a1 nilpotent) forces maximal rank at every chart point.
    """
    _require_concentrated(m)
    return hstack([evaluate_A(m, p.projective()), _frame(m, p)[1]])


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
    R1 = _frame(m, ChartPoint("U1", alpha2, alpha3))[0]
    return (_transition(m, R1, alpha2, alpha3).col_matrix(i - 1),
            Matrix.identity(m.r).col_matrix(i - 1))


def default_sample_points(n: int, seed: int = 11) -> List[ChartPoint]:
    """Deterministic small-rational chart points, always including
    alpha3 = 0 and an overlap point."""
    import random

    rng = random.Random(seed)
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
    sections lie in Ker B and the frame [A | sections] has full column
    rank; on the overlap the transition identity s2 - s1 = A xi1 holds
    with c xi1 = 0 and (xi1, xi2) matching an independent generic linear
    solve of frame_U1 . xi = s2.  Each identity is checked for all r
    framing indices at once, one chart resolvent and one transition
    solve per point.
    """
    _require_concentrated(m)
    if m.k == 0 and m.r == 0:
        return True
    if sample_points is None:
        sample_points = default_sample_points(n_samples)
    for p in sample_points:
        q = p.projective()
        A = evaluate_A(m, q)
        R, S = _frame(m, p)
        F = hstack([A, S])
        if not (evaluate_B(m, q) @ S).is_zero() or rank(F) != m.k + m.r:
            return False
        # q is normalized, so on U1 it reads [1 : alpha2 : alpha3]
        x1, alpha2, alpha3 = q.coords()
        if x1.is_zero() or alpha2.is_zero():
            continue  # off the overlap U1 ∩ U2
        if p.chart == "U1":
            R1, S1, F1 = R, S, F
            beta1 = alpha2.inverse()
            S2 = _frame(m, ChartPoint("U2", beta1, alpha3 * beta1))[1]
        else:
            R1, S1 = _frame(m, ChartPoint("U1", alpha2, alpha3))
            S2, F1 = S, hstack([A, S1])
        xi1 = _transition(m, R1, alpha2, alpha3)
        if not ((S2 - S1 - A @ xi1).is_zero() and (m.c @ xi1).is_zero()):
            return False
        generic = solve(F1, S2)
        if generic is None or generic != vstack([xi1, Matrix.identity(m.r)]):
            return False
    return True
