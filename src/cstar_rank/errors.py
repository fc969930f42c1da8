"""Exception types shared across the toolkit."""


class CstarRankError(Exception):
    """Base class for all toolkit errors."""


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
    """No unimodular reduction was reached; carries the perturbation sizes tried.

    The schedule is empty when the counting bound alone rules every reduction
    out (the tuple, or the truncation that ``bass_reduce`` perturbs, is
    shorter than the stable rank), so nothing was drawn.  A full schedule
    means the retries ran out: the tolerance or ``max_retries`` is unsuitable.
    """

    def __init__(self, message, eta_schedule=()):
        super().__init__(message)
        self.eta_schedule = tuple(eta_schedule)
