"""Explicit trivialization of the monad sheaf away from [0:0:1].

For tuples whose charge is concentrated at the origin (a1, a2 nilpotent,
all words c a1^.. a2^.. b vanishing) the sheaf is free on the complement
of [0:0:1]; this module builds the kernel-valued frame sections on the
two charts U1 = {x1 != 0}, U2 = {x2 != 0}, the full-rank frame matrices,
and the exact transition solution on the overlap.

Concentration is checked once per public call, by ``_checked``
(:func:`p2.is_concentrated_at_origin`); the private builder assumes it.
It works at a point q = [x1 : x2 : x3], on the pencil blocks
P1 = x1 - x3 a1 and P2 = x2 - x3 a2 (``p2._pencil``), of which the
monad maps are A(q) = (P1; P2; c x3) and B(q) = (-P2 | P1 | b x3).
Because a1 and a2 are nilpotent, their inverses are finite Neumann
series,

  (x - x3 a)^-1 = sum_{j<k} x3^j a^j / x^(j+1),

so with the ratios z = x3/x1 and y = x3/x2 the frame data are fixed
combinations of the words a1^i b, a2^j b and a1^i a2^j b:

  U2 sections    (sum_j y^(j+1) a2^j b, 0, 1)           where x2 != 0
  U1 sections    (0, -sum_i z^(i+1) a1^i b, 1)          where x1 != 0
  transition     xi1 = (1/x2) sum_j y^j sum_i z^(i+1) a1^i a2^j b

on the overlap.  These are (Y, 0, 1), (0, Z, 1) and xi1 for the k x r
blocks Y = x3 P2^-1 b, Z = -x3 P1^-1 b and xi1 = x3 P1^-1 P2^-1 b.  The
word table W[j][i] = a1^i a2^j b is formed once per call (each list
stops at its first zero word); a point then costs a Horner evaluation
of each sum, with no solve.  Rescaling q by t leaves the sections
unchanged, scales P1, P2 and x3 b by t and xi1 by 1/t, so every
identity that :func:`verify_trivialization` checks holds at q exactly
when it holds at tq.  The sections equal the chart closed forms (see
:func:`section_s1`, :func:`section_s2`); at [1 : alpha2 : alpha3] xi1
equals the closed form of :func:`transition_xi`.  The identity checks
verify the series on the blocks, by products and one k x k rank per
point, with no stacked matrix and no elimination of the frame system.
All r framing indices are treated at once: Y, Z and xi1 are k x r, so
the per-index helpers are column extractions and every identity is a
matrix identity.  Only the public helpers stack the sections into
(2k+r) x r matrices (:meth:`_Frames.sections`).

The frames are built, and verified, on Gaussian-integer numerators over
one integer denominator (``matrix._ZiMatrix``): the tuple is converted
once (``p2._integer``), each ChartPoint is cleared once, when it is made,
and ``p2._pencil`` writes each pencil block in one pass, so no ``QI``
value is built between the concentration check and the verdict.

Block convention: a kernel vector is (first W block, second W block,
C^r block) in the column order of B, so the b-dependent part of the U1
section sits in the SECOND W block (this is what makes B . s = 0 hold;
see the tests for the k=1 witness).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, lcm
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import (InvalidPoint, MonadcalcError, OverlapViolation,
                     check_invariant)
from .field import ONE, QI, qi
from .matrix import Gauss, Matrix, _clear, _gdot, _ZiMatrix
from .p2 import (MonadDataP2, ProjectivePoint, _integer, _pencil, _stacked_A,
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
    # coords() cleared once, as Gaussian integers x over an integer e
    _cleared: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.chart not in ("U1", "U2"):
            raise InvalidPoint("chart must be 'U1' or 'U2'")
        object.__setattr__(self, "coord_a", qi(self.coord_a))
        object.__setattr__(self, "coord_b", qi(self.coord_b))
        x, e = _clear(self.coords())  # a tuple: the default points are shared
        object.__setattr__(self, "_cleared", (tuple(x), e))

    def coords(self) -> Tuple[QI, QI, QI]:
        """Homogeneous coordinates with the chart's coordinate set to 1."""
        if self.chart == "U1":
            return (ONE, self.coord_a, self.coord_b)
        return (self.coord_a, ONE, self.coord_b)

    def projective(self) -> ProjectivePoint:
        return ProjectivePoint(*self.coords())


def _checked(m: MonadDataP2) -> Tuple[MonadDataP2, List[List[_ZiMatrix]]]:
    """m's integer form and its word table, after the concentration check."""
    if not is_concentrated_at_origin(m):
        raise NotConcentrated(
            "sections need nilpotent a1, a2 and vanishing word products")
    t = _integer(m)
    return t, _words(t)


def _check_index(m: MonadDataP2, i: int):
    if not 1 <= i <= m.r:
        raise IndexError(f"framing index {i} outside 1..{m.r}")


class _Frames(NamedTuple):
    """The pencil blocks P1, P2 and the frame data at one point, as integer
    forms: the k x r section blocks Y = x3 P2^-1 b (None where x2 = 0) and
    Z = -x3 P1^-1 b (None where x1 = 0), and xi1 (None off U1 ∩ U2)."""

    P1: _ZiMatrix
    P2: _ZiMatrix
    Y: Optional[_ZiMatrix]
    Z: Optional[_ZiMatrix]
    xi1: Optional[_ZiMatrix]

    def sections(self, chart: str) -> _ZiMatrix:
        """The chart's r sections as the columns of one (2k+r) x r
        matrix: (0, Z, 1) on U1 and (Y, 0, 1) on U2."""
        X = self.Z if chart == "U1" else self.Y
        zero = _ZiMatrix.zeros(X.rows, X.cols)
        return _ZiMatrix.vstack(([zero, X] if chart == "U1" else [X, zero])
                                + [_ZiMatrix.identity(X.cols)])


def _orbit(a: _ZiMatrix, v: _ZiMatrix) -> List[_ZiMatrix]:
    """v, a v, a^2 v, ... up to the last nonzero word: at most k words,
    as a^k v = 0 for nilpotent a."""
    words = []
    while not v.is_zero():
        check_invariant(len(words) < a.rows, "a^k v != 0: the data is not nilpotent")
        words.append(v)
        v = a @ v
    return words


def _words(t: MonadDataP2) -> List[List[_ZiMatrix]]:
    """The word table W[j][i] = a1^i a2^j b of the tuple t of integer forms
    (``p2._integer``): W[j][0] is a2^j b, and W[0] lists the a1^i b."""
    return [_orbit(t.a1, v) for v in _orbit(t.a2, t.b)]


def _ratio(p: Gauss, q: Gauss) -> Tuple[Gauss, int]:
    """p / q, for Gaussian integers p and q != 0, as a Gaussian integer
    over a positive integer, in lowest terms."""
    (a, b), (c, d) = p, q
    re, im, n = a * c + b * d, b * c - a * d, c * c + d * d
    g = gcd(re, im, n)
    return (re // g, im // g), n // g


def _horner(terms: Sequence[_ZiMatrix], ratio: Tuple[Gauss, int]) -> _ZiMatrix:
    """sum_j ratio^j terms[j], for one or more terms of one shape.

    With ratio = p/q the numerators of sum_j p^j q^(n-1-j) terms[j] are
    accumulated over one denominator and reduced once, at the end.
    """
    if len(terms) == 1:
        return terms[0]
    (pr, pi), q = ratio
    den = lcm(*(T.den for T in terms))
    acc, qj = terms[-1]._over(den), 1
    for T in reversed(terms[:-1]):
        qj *= q
        acc = [(pr * a - pi * b + qj * c, pr * b + pi * a + qj * d)
               for (a, b), (c, d) in zip(acc, T._over(den))]
    return _ZiMatrix(terms[0].rows, terms[0].cols, acc, den * qj)


def _frames(t: MonadDataP2, W: List[List[_ZiMatrix]], x: Sequence[Gauss],
            e: int) -> _Frames:
    """Every frame of the tuple t of integer forms (``p2._integer``), with
    its word table W (:func:`_words`), at [x1 : x2 : x3] = x / e (Gaussian
    integers x, an integer e > 0), all r framing indices at once, from
    the Neumann series: no solve.

    With z = x3/x1 and y = x3/x2, each block is one scale of a Horner sum:
    Y = y sum_j y^j a2^j b, Z = -z sum_i z^i a1^i b and, on the overlap,
    xi1 = (z e/x2) sum_j y^j sum_i z^i a1^i a2^j b.
    """
    x1, x2, x3 = x
    W = W or [[_ZiMatrix.zeros(t.k, t.r)]]  # b = 0: the one zero word
    Y = Z = xi1 = None
    if x2 != (0, 0):
        y = _ratio(x3, x2)
        Y = _horner([row[0] for row in W], y).scale(*y)
    if x1 != (0, 0):
        (zr, zi), zd = z = _ratio(x3, x1)
        Z = _horner(W[0], z).scale((-zr, -zi), zd)
        if Y is not None:
            inner = [_horner(row, z) for row in W]
            xi1 = _horner(inner, y).scale(*_ratio((e * x3[0], e * x3[1]),
                                                  _gdot([x1], [x2])))
    return _Frames(*_pencil(t, x, e), Y, Z, xi1)


def _section(m: MonadDataP2, i: int, p: ChartPoint, chart: str) -> Matrix:
    t, W = _checked(m)
    _check_index(m, i)
    if p.chart != chart:
        raise InvalidPoint(f"section_s{chart[1]} is defined on {chart} chart points")
    S = _frames(t, W, *p._cleared).sections(chart)
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
    t, W = _checked(m)
    x, e = _clear(p.projective().coords())
    f = _frames(t, W, x, e)
    return _ZiMatrix.hstack([_stacked_A(t, f.P1, f.P2, x[2], e),
                             f.sections(p.chart)]).matrix()


def transition_xi(m: MonadDataP2, i: int, alpha2: QI, alpha3: QI) -> Tuple[Matrix, Matrix]:
    """The overlap solution of frame_U1 . (xi1, xi2) = s2.

    xi1 = alpha3 (1 - alpha3 a1)^-1 (alpha2 - alpha3 a2)^-1 b e_i and
    xi2 = e_i; consequently s2 - s1 = A . xi1 on U1 ∩ U2 (with the chart
    identification beta1 = 1/alpha2, beta3 = alpha3/alpha2) and c xi1 = 0.
    """
    t, W = _checked(m)
    _check_index(m, i)
    alpha2, alpha3 = qi(alpha2), qi(alpha3)
    if alpha2.is_zero():
        raise OverlapViolation("alpha2 = 0 lies outside U1 ∩ U2")
    xi1 = _frames(t, W, *_clear((ONE, alpha2, alpha3))).xi1
    return (xi1.submatrix(range(m.k), [i - 1]).matrix(),
            Matrix.identity(m.r).col_matrix(i - 1))


def default_sample_points(n: int) -> List[ChartPoint]:
    """Deterministic small-rational chart points, always including
    alpha3 = 0 and an overlap point.  Raises ValueError for n < 0."""
    if n < 0:
        raise ValueError(f"the number of sample points must be nonnegative, got {n}")
    return list(_sample_points(n))


@lru_cache(maxsize=16)
def _sample_points(n: int) -> Tuple[ChartPoint, ...]:
    """The first n default points, drawn once per count."""
    import random

    rng = random.Random(11)
    pts = [ChartPoint("U1", qi(1), qi(0)), ChartPoint("U1", qi(1), qi(1))]
    while len(pts) < n:
        num = lambda: qi(rng.randint(-6, 6), rng.randint(-2, 2))
        a2 = num()
        if a2.is_zero():
            a2 = qi(1)
        pts.append(ChartPoint("U1", a2, num()))
    return tuple(pts[:n])


def verify_trivialization(m: MonadDataP2,
                          sample_points: Optional[Sequence[ChartPoint]] = None,
                          n_samples: int = 10) -> bool:
    """Exact verification of the trivialization identities on samples.

    Concentration is checked once, here.  At each sample point, with the
    chart's own pencil block P and section block X (P1 and Z on U1, P2
    and Y on U2), three identities are checked on the blocks, for all r
    framing indices at once, at the point's chart coordinates:

    - Ker B: P1 Z = -x3 b on U1, P2 Y = x3 b on U2 (the rows of B S = 0);
    - rank: rank P = k.  The chart minor [[P, 0], [c x3, I]] of the frame
      F = [A | S] has rank r + rank P, and det P = 1 for nilpotent a, so
      a singular P is a broken frame;
    - on the overlap: P1 xi1 = Y, P2 xi1 = -Z and c xi1 = 0, the block
      rows of F (+-xi1, 1) = T (T the other chart's sections) on either
      chart.  At full rank F X = T has at most one solution, so this is
      the transition identity s2 - s1 = A xi1.

    Per point: products and one k x k rank on the numerators that the
    point cleared when it was made; no stacked matrix, solve or ``QI``.

    Raises ValueError when there is no point to check: n_samples < 1
    without sample_points, or an empty sample_points.
    """
    if sample_points is None:
        if n_samples < 1:
            raise ValueError(f"n_samples must be at least 1, got {n_samples}")
        sample_points = default_sample_points(n_samples)
    elif not sample_points:
        raise ValueError("sample_points is empty")
    t, W = _checked(m)
    for p in sample_points:
        (x, e), u1 = p._cleared, p.chart == "U1"
        f, (xr, xi) = _frames(t, W, x, e), x[2]
        P, X, s = (f.P1, f.Z, (-xr, -xi)) if u1 else (f.P2, f.Y, (xr, xi))
        if P @ X != t.b.scale(s, e) or P.rank() != m.k:
            return False
        if f.xi1 is None:  # off the overlap U1 ∩ U2
            continue
        if not (f.P1 @ f.xi1 == f.Y and f.P2 @ f.xi1 == -f.Z
                and (t.c @ f.xi1).is_zero()):
            return False
    return True
