"""Exception types shared across the package."""


class MonadcalcError(Exception):
    """Base class for all domain errors raised by monadcalc."""


class DimensionMismatch(MonadcalcError):
    pass


class NonSquareMatrix(MonadcalcError):
    pass


class SingularGroupElement(MonadcalcError):
    """A group action was requested with a non-invertible element."""


class NonCommuting(MonadcalcError):
    """Joint spectra need a family whose exact commutators all vanish."""


class IrrationalSpectrum(MonadcalcError):
    """A characteristic polynomial does not split over Q(i).

    Raised by the exact root finder when a square-free factor has fewer
    roots in Q(i) than its degree; the message says how many are
    missing.  Exact eigenvalues do not exist; canonical_reduction's
    float mode reads the same spectrum as complex numbers instead.
    """


class FloatOverflow(MonadcalcError):
    """The approximate mode met an exact value outside the float range."""


class IntegrabilityViolation(MonadcalcError):
    """Raised by validators; carries the nonzero defect matrix."""

    def __init__(self, defect):
        super().__init__("integrability condition violated")
        self.defect = defect


class SurjectivityViolation(MonadcalcError):
    """Blowup data where [a1 | a2 | b] fails to be surjective."""

    def __init__(self, cokernel_dim):
        super().__init__(f"surjectivity condition violated (cokernel dim {cokernel_dim})")
        self.cokernel_dim = cokernel_dim


class InvalidPoint(MonadcalcError, ValueError):
    """Coordinates that name no point: all zero, off the incidence locus,
    or in the wrong or an unknown chart.  Also a ValueError: the caller
    passed a bad argument value."""


class PointOnExceptionalLine(MonadcalcError):
    """Operation defined only away from the exceptional line."""


class OverlapViolation(MonadcalcError):
    """Transition data requested outside the chart overlap (alpha2 = 0)."""


class InfeasibleSpec(MonadcalcError):
    """An instance-generator family cannot be realized with the given k, r."""


class DocumentError(MonadcalcError):
    """Malformed instance document (JSON shape, rational syntax, dimensions)."""


class InvariantViolation(MonadcalcError):
    """An internal invariant failed: a bug, not a property of the input."""


def check_invariant(condition: bool, message: str):
    """An ``assert`` that ``python -O`` keeps: raise InvariantViolation."""
    if not condition:
        raise InvariantViolation(message)
