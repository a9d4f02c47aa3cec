"""Exception types raised across the package."""


class ThermoflowError(Exception):
    """Base class for every error this package raises on purpose."""


class NonPositiveBeta(ThermoflowError):
    """Inverse temperature must be a finite, strictly positive number."""


class IntensivesInEntropyTheory(ThermoflowError):
    """The entropy theory has no bath, hence no beta and no intensive values."""


class MissingParameter(ThermoflowError):
    """A preset was asked for without one of its defining parameters."""


class DimensionMismatch(ThermoflowError):
    """Operator table and context disagree about shapes or counts."""


class LabelMismatch(ThermoflowError):
    """Two systems were combined whose operator labels do not line up."""


class NormalizationError(ThermoflowError):
    """Probability vector is negative somewhere or too far from unit sum."""


class ContextMismatch(ThermoflowError):
    """Source and target of a conversion are not states of the same theory."""


class WidthMismatch(ThermoflowError):
    """Lorenz curves span different equilibrium widths and cannot be compared."""


class TooLarge(ThermoflowError):
    """Problem size exceeds the fixed cap of an exact oracle or a tensor power."""


class EpsilonOutOfRange(ThermoflowError):
    """Failure tolerance outside the range a quantity is defined on."""


class EntropyRepresentation(ThermoflowError):
    """Operation needs an energy-representation context (a defined beta)."""


class EnergyRepresentation(ThermoflowError):
    """Operation is defined only in the entropy representation."""


class TargetIsEquilibrium(ThermoflowError):
    """Conversion rate onto an equilibrium target diverges."""
