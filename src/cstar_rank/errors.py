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
    """Perturbation retries were exhausted without reaching a unimodular reduction.

    Carries the schedule of perturbation sizes that were attempted; exhausting
    it usually means the tuple is shorter than the stable rank of the space,
    or the invertibility tolerance is unsuitable.  The schedule is empty when
    the counting bound alone decides that no reduction can succeed, so no
    perturbation was drawn.
    """

    def __init__(self, message, eta_schedule=()):
        super().__init__(message)
        self.eta_schedule = tuple(eta_schedule)
