"""Exception types shared across the toolkit."""


class CstarRankError(Exception):
    """Base class for all toolkit errors."""


class _InputError(ValueError):
    """An input document refused while it is read or its objects are built from it."""


class ShapeMismatchError(CstarRankError):
    """Operands have incompatible block structure or live in different spaces."""


class DomainError(CstarRankError):
    """Input violates a mathematical precondition of the operation."""


class InvertibilityError(DomainError):
    """Element is numerically singular where an invertible one is required."""


class DegenerateModuleError(DomainError):
    """The requested module collapses to zero (corner over a zero projection)."""


class ModuleNotFullError(DomainError):
    """The module is not full, so no unimodular tuple of any length exists."""


class ReductionFailedError(DomainError):
    """No unimodular reduction exists: the counting bound rules every one out.

    Raised when the tuple, or the truncation that ``bass_reduce`` completes,
    is shorter than the stable rank.
    """
