"""Exact scalars: the Gaussian rationals Q(i).

Every computation in the package happens over this field so that rank,
kernel and nilpotency questions have exact answers.  Values are kept in
lowest terms with positive denominators (gmpy2.mpq / Fraction guarantee
this), so equality is plain component comparison.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Rat
except ImportError:  # gmpy2 is optional (extra "fast"); same results, slower
    from fractions import Fraction as Rat


def _to_rat(x) -> Rat:
    if type(x) is Rat:  # immutable: no copy needed
        return x
    if isinstance(x, (int, str)):
        return Rat(x)
    # Fraction <-> mpq interop and similar rational-like objects.
    if hasattr(x, "numerator") and hasattr(x, "denominator"):
        return Rat(x.numerator, x.denominator)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class QI:
    """A Gaussian rational ``re + im*i``."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _to_rat(re)
        self.im = _to_rat(im)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "QI":
        return cls(0, 0)

    @classmethod
    def one(cls) -> "QI":
        return cls(1, 0)

    @classmethod
    def i(cls) -> "QI":
        return cls(0, 1)

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QI):
            return other
        if isinstance(other, int):
            return QI(other, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QI(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QI(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QI(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QI(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inverse(self) -> "QI":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return QI(self.re / n, -self.im / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

    def conjugate(self) -> "QI":
        return QI(self.re, -self.im)

    # -- predicates & comparison ---------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # a real value equals its int (see _coerce), so it hashes like one;
        # Fraction and mpq hash integral values as int does
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def sort_key(self):
        """Deterministic total order used when listing eigenvalues/points."""
        return (self.re, self.im)

    # -- conversion -----------------------------------------------------

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    @classmethod
    def parse(cls, re_str: str, im_str: str) -> "QI":
        """Build from the canonical ``"p/q"`` strings of the JSON format."""
        return cls(Rat(re_str), Rat(im_str))

    @staticmethod
    def _rat_str(q) -> str:
        return f"{q.numerator}/{q.denominator}"

    def re_str(self) -> str:
        return self._rat_str(self.re)

    def im_str(self) -> str:
        return self._rat_str(self.im)

    def __repr__(self):
        if self.im == 0:
            return f"QI({self.re})"
        return f"QI({self.re}, {self.im})"


ZERO = QI.zero()
ONE = QI.one()
I = QI.i()


def qi(re=0, im=0) -> QI:
    """Convenience constructor accepting ints, rationals or ``"p/q"`` strings."""
    if isinstance(re, QI) and (im == 0):
        return re
    return QI(re, im)
