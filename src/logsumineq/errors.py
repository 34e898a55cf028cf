"""Exception types, and the tolerance rule, shared across the package."""

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SupportError(DomainError):
    """A state has weight where the reference state vanishes (divergent value)."""


class PreconditionError(ValueError):
    """A hypothesis of the inequality being checked is not satisfied."""


class SingularityError(PreconditionError):
    """A matrix that must be inverted has an eigenvalue below the safe floor."""


class DimensionError(ValueError):
    """Operands have incompatible or invalid shapes."""


class NumericError(RuntimeError):
    """An iterative numerical routine failed to converge."""


def _tolerance(tol) -> float:
    """tol as a float, checked finite and > 0: the rule for every verdict's tolerance."""
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tolerance must be finite and positive, got {tol!r}")
    return float(tol)
