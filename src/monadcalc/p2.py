"""Monad data on the projective plane.

A tuple (a1, a2, b, c) with a_i in End(W), b: C^r -> W, c: W -> C^r and
[a1, a2] + b c = 0 determines a two-step complex whose middle cohomology
is a framed torsion-free sheaf of rank r and charge k = dim W.  This
module implements the tuple calculus: validation, the GL(W) action,
special subspaces and nondegeneracy, pointwise evaluation of the monad
maps (``_pencil`` writes the pencil blocks P1 = x1 - x3 a1 and
P2 = x2 - x3 a2 on Gaussian-integer numerators; the public evaluators
stack them into A and B), reduction to a nondegenerate part
plus a point multiset (two splits, along the maximal c-special and the
minimal b-special subspace), and the charge-at-the-origin test
:func:`is_concentrated_at_origin`, the package's one concentration test:
trivialize checks it, and stratify reports its parts.

A tuple's matrices are written down once, as the fields of its
dataclass; the blowup tuple shares the base here.  ``_shape`` gives
each field's shape, and everything that walks a tuple's matrices (the
shape check, the JSON documents, the tests' raw generators and the
Gaussian-integer conversion ``_integer`` / ``_rational``) reads the
fields.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .closure import (_nilpotent, _spin, invariant_closure,
                      max_invariant_in_kernel)
from .eigen import _joint_key, joint_spectrum
from .errors import (DimensionMismatch, IntegrabilityViolation, InvalidPoint,
                     SingularGroupElement)
from .field import QI, qi
from .matrix import (Gauss, Matrix, Subspace, _clear, _gdot, _invariant_split,
                     _ZiMatrix, rank)
from .polymat import PolyMatrix, linear_polymatrix, poly_matmul


class ProjectivePoint:
    """A point [x1 : x2 : x3], normalized so the first nonzero coord is 1."""

    __slots__ = ("x1", "x2", "x3")

    def __init__(self, x1, x2, x3):
        coords = [qi(x1), qi(x2), qi(x3)]
        lead = next((c for c in coords if not c.is_zero()), None)
        if lead is None:
            raise InvalidPoint("all projective coordinates are zero")
        s = lead.inverse()
        self.x1, self.x2, self.x3 = (s * c for c in coords)

    def coords(self) -> Tuple[QI, QI, QI]:
        return (self.x1, self.x2, self.x3)

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.coords() == other.coords()

    def __hash__(self):
        return hash(self.coords())

    def __repr__(self):
        return f"[{self.x1!r}:{self.x2!r}:{self.x3!r}]"


def _shape(name: str, k: int, r: int) -> Tuple[int, int]:
    """The shape of a tuple's matrix ``name``, for charge k and rank r:
    a1, a2 and d are k x k, b is k x r and c is r x k."""
    return {"b": (k, r), "c": (r, k)}.get(name, (k, k))


class _MonadData:
    """The base of both tuple kinds, whose matrices are their dataclass
    fields: charge k = a1.rows, rank r = b.cols, and one shape check.

    The check reads only ``rows`` and ``cols``, so a tuple of integer
    forms (:func:`_integer`) passes it too.
    """

    def __post_init__(self):
        k, r = self.k, self.r
        for f in fields(self):
            M = getattr(self, f.name)
            shape = _shape(f.name, k, r)
            if (M.rows, M.cols) != shape:
                raise DimensionMismatch(
                    f"{f.name} must be {shape[0]}x{shape[1]}, got {M.rows}x{M.cols}")

    @property
    def k(self) -> int:
        return self.a1.rows

    @property
    def r(self) -> int:
        return self.b.cols


@dataclass(frozen=True)
class MonadDataP2(_MonadData):
    """Raw monad tuple on P^2; dimensions are checked, integrability is not.

    Use :func:`validate_p2` to enforce the integrability condition; the
    raw form stays constructible so the validator and the symbolic
    identities can be exercised on non-integrable tuples.
    """

    a1: Matrix
    a2: Matrix
    b: Matrix
    c: Matrix


def _integer(m):
    """m with every matrix in its Gaussian-integer form
    (``matrix._ZiMatrix``), converted once for any number of points."""
    return type(m)(*(_ZiMatrix.of(getattr(m, f.name)) for f in fields(m)))


def _rational(t):
    """The inverse of :func:`_integer`: every matrix back to ``Matrix``."""
    return type(t)(*(getattr(t, f.name).matrix() for f in fields(t)))


def integrability_defect(m: MonadDataP2) -> Matrix:
    """[a1, a2] + b c, identically zero exactly for valid tuples."""
    return m.a1 @ m.a2 - m.a2 @ m.a1 + m.b @ m.c


def validate_p2(m: MonadDataP2) -> MonadDataP2:
    defect = integrability_defect(m)
    if not defect.is_zero():
        raise IntegrabilityViolation(defect)
    return m


def act(g: Matrix, m: MonadDataP2) -> MonadDataP2:
    """The GL(W) action (a1, a2, b, c) -> (g^-1 a1 g, g^-1 a2 g, g^-1 b, c g).

    The products run on the integer form ``matrix._ZiMatrix``.
    """
    G = _ZiMatrix.of(g)
    Ginv = G.inverse()
    if Ginv is None:
        raise SingularGroupElement("group element is not invertible")
    t = _integer(m)
    return _rational(MonadDataP2(Ginv @ t.a1 @ G, Ginv @ t.a2 @ G,
                                 Ginv @ t.b, t.c @ G))


# -- special subspaces and nondegeneracy --------------------------------

def min_b_special(m: MonadDataP2) -> Subspace:
    """Smallest (a1, a2)-invariant subspace containing Im b."""
    return invariant_closure([m.a1, m.a2], m.b)


def max_c_special(m: MonadDataP2) -> Subspace:
    """Largest (a1, a2)-invariant subspace contained in Ker c."""
    return max_invariant_in_kernel([m.a1, m.a2], m.c)


def is_nondegenerate(m: MonadDataP2) -> bool:
    """True iff the only b-special subspace is W and the only c-special is 0."""
    return min_b_special(m).is_full() and max_c_special(m).is_zero()


# -- pointwise monad maps ----------------------------------------------

class MonadMaps(NamedTuple):
    """The monad maps A = (P1; P2; c x3) and B = (-P2 | P1 | b x3) at a
    point, as ``Matrix`` values, stacked from the blocks of ``_pencil``."""

    A: Matrix
    B: Matrix


def _pencil(t: MonadDataP2, x: Sequence[Gauss], e: int) -> Tuple[_ZiMatrix, _ZiMatrix]:
    """The pencil blocks P1 = x1 - x3 a1 and P2 = x2 - x3 a2 at the point
    with homogeneous coordinates x / e (Gaussian integers x, an integer
    e > 0), for a tuple t of integer forms (:func:`_integer`).  This is
    the one place where they are formed: each is one ``_ZiMatrix``,
    written in one pass over a's numerators, with no ``QI`` arithmetic."""
    (yr, yi), k, blocks = x[2], t.k, []
    for a, (sr, si) in ((t.a1, x[0]), (t.a2, x[1])):
        nums = [(yi * q - yr * p, -yr * q - yi * p) for p, q in a.nums]
        for i in range(0, k * k, k + 1):  # the diagonal
            nums[i] = (nums[i][0] + a.den * sr, nums[i][1] + a.den * si)
        blocks.append(_ZiMatrix(k, k, nums, a.den * e))
    return tuple(blocks)


def _stacked_A(t: MonadDataP2, P1: _ZiMatrix, P2: _ZiMatrix, x3: Gauss,
               e: int) -> _ZiMatrix:
    """A = (P1; P2; c x3) from the pencil blocks at x / e."""
    return _ZiMatrix.vstack([P1, P2, t.c.scale(x3, e)])


def monad_maps(m: MonadDataP2, p: ProjectivePoint) -> MonadMaps:
    """A(p) and B(p), stacked from one evaluation of the pencil at p."""
    t, (x, e) = _integer(m), _clear(p.coords())
    P1, P2 = _pencil(t, x, e)
    return MonadMaps(_stacked_A(t, P1, P2, x[2], e).matrix(),
                     _ZiMatrix.hstack([-P2, P1, t.b.scale(x[2], e)]).matrix())


def evaluate_A(m: MonadDataP2, p: ProjectivePoint) -> Matrix:
    """The (2k+r) x k monad map A at p: rows (x1 - a1 x3; x2 - a2 x3; c x3)."""
    return monad_maps(m, p).A


def evaluate_B(m: MonadDataP2, p: ProjectivePoint) -> Matrix:
    """The k x (2k+r) monad map B at p: (-x2 + a2 x3 | x1 - a1 x3 | b x3)."""
    return monad_maps(m, p).B


# the unit points, at which A and B take their coefficient matrices
_UNITS = (ProjectivePoint(1, 0, 0), ProjectivePoint(0, 1, 0),
          ProjectivePoint(0, 0, 1))


def symbolic_monad_product(m: MonadDataP2) -> PolyMatrix:
    """B A as a matrix-coefficient polynomial in (x1, x2, x3).

    For every raw tuple this equals ([a1, a2] + b c) * x3^2; all other
    monomial coefficients cancel identically.
    """
    maps = [monad_maps(m, p) for p in _UNITS]
    return poly_matmul(linear_polymatrix([mp.B for mp in maps]),
                       linear_polymatrix([mp.A for mp in maps]))


def fiber_dimension(m: MonadDataP2, p: ProjectivePoint) -> int:
    """dim Ker B(p) - rank A(p); equals r wherever the monad maps have
    maximal rank."""
    mp = monad_maps(m, p)
    return _fiber_dim(mp.A, mp.B)


def _fiber_dim(A: Matrix, B: Matrix) -> int:
    """dim Ker B - rank A: the dimension of a monad's cohomology at a point."""
    return (B.cols - rank(B)) - rank(A)


# -- reduction to Donaldson-Uhlenbeck data ------------------------------

@dataclass(frozen=True)
class DUPoint:
    """A nondegenerate reduced tuple of charge l plus k - l plane points.

    ``points`` is the sorted multiset of joint eigenvalue pairs of the
    split-off commuting blocks; when ``approx`` is set the pairs are
    complex numbers (float mode with at least one point).
    """

    reduced: MonadDataP2
    points: Tuple[Tuple[object, object], ...]
    approx: bool = False

    @property
    def l(self) -> int:
        return self.reduced.k

    @property
    def total_charge(self) -> int:
        return self.l + len(self.points)


def _split(m: MonadDataP2, V: Subspace) -> Tuple[MonadDataP2, MonadDataP2]:
    """The tuples that m induces on an (a1, a2)-invariant V and on W/V:
    b cut to its V- and W/V-coordinates, c to its two restrictions.  The
    basis change runs on the integer form of m, converted once."""
    t = _integer(m)
    P, Pinv, (t1, t2), (q1, q2) = _invariant_split([t.a1, t.a2], V)
    nb, nc = Pinv @ t.b, t.c @ P
    head, tail, frame = range(V.dim), range(V.dim, m.k), range(m.r)
    return (_rational(MonadDataP2(t1, t2, nb.submatrix(head, frame),
                                  nc.submatrix(frame, head))),
            _rational(MonadDataP2(q1, q2, nb.submatrix(tail, frame),
                                  nc.submatrix(frame, tail))))


def canonical_reduction(m: MonadDataP2, eigen_mode: str = "exact") -> DUPoint:
    """Pass to the completely reducible orbit closure and read off its data.

    Two splits reach it.  First the maximal c-special subspace V_c is
    split off and W/V_c kept; then, of what is left, the minimal
    b-special subspace V_b is kept and the quotient split off.  The
    survivor is the nondegenerate reduced tuple.  c vanishes on the first
    discarded block and b on the second, so for a valid tuple a1 and a2
    commute on both; their joint eigenvalue pairs are the plane points.

    Nothing splits after that, for any raw tuple:
    - a c-special subspace of W/V_c has a c-special preimage in W, which
      lies inside V_c; so W/V_c has none but 0;
    - inside V_b the invariant closure of Im b is V_b itself, and a
      c-special subspace of V_b would be c-special in W/V_c, so is 0.

    Pairs come from :func:`eigen.joint_spectrum`: eigen_mode "exact"
    raises IrrationalSpectrum for a block with spectrum outside Q(i);
    "float" reads them as complex numbers and marks the result.
    """
    if eigen_mode not in ("exact", "float"):
        raise ValueError("eigen_mode must be 'exact' or 'float'")
    dropped: List[MonadDataP2] = []
    Vc = max_c_special(m)
    if not Vc.is_zero():
        special, m = _split(m, Vc)
        dropped.append(special)
    Vb = min_b_special(m)
    if not Vb.is_full():
        m, quotient = _split(m, Vb)
        dropped.append(quotient)
    approx = eigen_mode == "float"
    points = sorted((p for t in dropped
                     for p in joint_spectrum([t.a1, t.a2], approx)),
                    key=_joint_key)
    approx = approx and bool(points)
    return DUPoint(reduced=m, points=tuple(points), approx=approx)


def is_concentrated_at_origin(m: MonadDataP2) -> bool:
    """Concentrated iff a1, a2 are nilpotent and c kills every word a1^.. a2^.. b.

    The word family (empty word included, i.e. c b = 0) is finite once
    phrased through the invariant closure of Im b (:func:`min_b_special`):
    c kills every word iff it kills each vector that the closure's spin
    keeps (:func:`_spun`).  All runs on one integer form of m: no
    nilpotency index, basis or ``Matrix`` product.
    """
    t = _integer(m)
    return _nilpotent(t.a1) and _nilpotent(t.a2) and _spun(t)[1] is None


def _spun(t: MonadDataP2) -> Tuple[int, Optional[Tuple[int, ...]]]:
    """The spin of Im b under (a1, a2) on integer forms (``closure._spin``):
    the number of vectors it keeps, dim :func:`min_b_special`, and the
    length-lex least word w with c w(a1, a2) b != 0, or None."""
    c, kept = t.c._rows(), _spin([t.a1, t.a2], t.b)[1]
    return len(kept), next((w for w, v in kept
                            if any(_gdot(row, v) != (0, 0) for row in c)), None)
