"""Exception types, and the number, tolerance, check and refusal rules shared across the package."""

import math
import numbers

import numpy as np


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


def _number(value) -> float:
    """A finite JSON number, int or float but not a bool, as a float: the rule for eval input."""
    if type(value) not in (int, float):
        raise DomainError(f"must be a number, got {value!r}")
    if not math.isfinite(value):
        raise DomainError(f"must be a finite number, got {value!r}")
    return float(value)


DEFAULT_TOLERANCE = 1e-9  # every verdict's tolerance unless its caller passes one


def _tolerance(tol) -> float:
    """tol as a float, checked a finite real > 0 and not a bool: every verdict's tolerance."""
    real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
    if not (real and math.isfinite(tol) and tol > 0):
        raise DomainError(f"tolerance must be finite and positive, got {tol!r}")
    return float(tol)


def _spectrum_range(spectrum_range) -> tuple[float, float]:
    """(lo, hi) as floats, each end by the tolerance's rule and lo < hi: every spectrum window."""
    try:
        lo, hi = map(_tolerance, spectrum_range)
    except (TypeError, ValueError):  # a DomainError among them
        raise DomainError("spectrum_range must be two finite positive numbers") from None
    if not lo < hi:
        raise DomainError("spectrum_range must satisfy 0 < lo < hi")
    return lo, hi


def _holds(gap, scale, tol: float):
    """Whether gap >= -tol * scale (elementwise): the one rule by which every check holds.

    A bound error <= tol * scale is _holds(-error, scale, tol): negation is exact.
    """
    return gap >= -tol * scale


def _require(ok, error: type[Exception], template: str, *values) -> None:
    """Raise error(template.format(*values)) unless ok holds everywhere: the one refusal.

    Each value broadcasts against ok and is taken at ok's first failing entry in C order,
    so a stack of trials raises the one-trial message of its first failing trial.
    """
    ok = np.asarray(ok)
    if not ok.all():
        k = int(np.flatnonzero(~ok)[0])
        raise error(
            template.format(*(np.ravel(np.broadcast_to(v, ok.shape))[k].item() for v in values))
        )
