"""Exception types shared across the package, and its argument rules.

Every public entry point checks its integer, finite and positive arguments
with three rules, each raising a DomainError that names the parameter:
require_int (an integer >= lo), require_finite (a finite number >= lo, or any
finite number) and require_positive (a finite number > 0). A number is any
numbers.Real but a bool, numpy scalars included; an integer is a Python int
but a bool. Other domains, such as an open interval, are checked where they
are used, after is_number or is_int.
"""

import math
import numbers


def is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)  # True must not pass for 1


def is_number(x) -> bool:
    # float first: the common case skips the slower abstract-class check
    return isinstance(x, float) or (isinstance(x, numbers.Real) and not isinstance(x, bool))


def require_int(name: str, x, lo: int) -> None:
    if not (is_int(x) and x >= lo):
        raise DomainError(f"{name} must be an integer >= {lo}, got {x!r}")


def require_finite(name: str, x, lo: float = -math.inf) -> None:
    if not (is_number(x) and math.isfinite(x) and x >= lo):
        bound = "" if lo == -math.inf else f" >= {lo:g}"
        raise DomainError(f"{name} must be a finite number{bound}, got {x!r}")


def require_positive(name: str, x) -> None:
    if not (is_number(x) and 0.0 < x < math.inf):
        raise DomainError(f"{name} must be a finite positive number, got {x!r}")


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
