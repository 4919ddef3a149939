"""Exception types shared across the package, and its integer and number tests."""


def is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)  # True must not pass for 1


def is_number(x) -> bool:
    return is_int(x) or isinstance(x, float)


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class OptimizationError(RuntimeError):
    """A 1-D optimizer failed to bracket or refine a maximizer."""


class GeometryError(ValueError):
    """A geometric precondition fails (lattice packing, radii, grid shape)."""


class ConditionError(ValueError):
    """An integrability/divergence condition on the exponent is not met."""


class AdmissibilityError(ValueError):
    """A profile parameter violates the supersolution admissibility window."""


class GridFormatError(ValueError):
    """A grid file header or payload does not match the documented format."""


class DegenerateData(RuntimeError):
    """Too few usable data points for a fit.

    Carries the partial report (when one exists) as ``report`` so callers can
    inspect counts that were computed before the fit was abandoned.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
