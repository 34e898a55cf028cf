"""Deformed (q-)logarithm and its algebraic identities.

The deformed logarithm of order q is

    qlog(x) = (x**(1 - q) - 1) / (1 - q),

which converges to the natural logarithm as q -> 1.  Inside a small window
around q = 1 the natural log is substituted directly: the closed form is a
0/0 limit there and loses all precision.  Away from the window the formula
is evaluated through expm1 so that no cancellation occurs for any q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "QLogParams",
    "q_log",
    "q_log_product",
    "q_log_quotient",
    "q_log_reciprocal",
]

_LIMIT_WINDOW = 1e-9  # |1 - q| at or below which qlog is the natural log


@dataclass(frozen=True)
class QLogParams:
    """Deformation order q."""

    q: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.q):
            raise DomainError(f"deformation order must be finite, got {self.q}")


def _check_positive(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite")
    if (arr <= 0.0).any():
        raise DomainError(f"{name} must be strictly positive")
    return arr


def _q_log(arr: np.ndarray, q) -> np.ndarray:
    """qlog of checked positive arr; q is a float or an array broadcasting against arr.

    An array q gives each entry its own order (q[:, None] for one per row) with
    the arithmetic of a call per order, so a stack of orders is bitwise equal
    to one call per order.
    """
    one_minus_q = 1.0 - q
    logs = np.log(arr)
    if np.ndim(q) == 0:
        if abs(one_minus_q) <= _LIMIT_WINDOW:
            return logs
        return np.expm1(one_minus_q * logs) / one_minus_q
    near = np.abs(one_minus_q) <= _LIMIT_WINDOW
    one_minus_q = np.where(near, 1.0, one_minus_q)
    return np.where(near, logs, np.expm1(one_minus_q * logs) / one_minus_q)


def _finite(name: str, compute):
    """compute()'s result, a float if it is one value.  What overflows, divides by zero or is
    invalid gives a result that is not finite, which is a NumericError, with no warning first."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = compute()
    if not np.isfinite(out).all():
        raise NumericError(f"{name} gave a result that is not finite")
    return float(out) if np.ndim(out) == 0 else out


def _q_log_of(name: str, value, q):
    """(value, checked strictly positive and finite under name, as an array; its qlog)."""
    arr = _check_positive(name, value)
    return arr, _finite("q_log", lambda: _q_log(arr, q))


def q_log(x, params: QLogParams):
    """Evaluate qlog(x).  Accepts scalars or arrays of positive reals.  A result that is not
    finite (x**(1 - q) overflowed) is a NumericError, as it is in each identity below."""
    return _q_log_of("x", x, params.q)[1]


def q_log_product(x, y, params: QLogParams):
    """Right-hand side of the product rule.

    qlog(x*y) = qlog(x) + qlog(y) + (1 - q) * qlog(x) * qlog(y)
    """
    lx, (_, ly) = q_log(x, params), _q_log_of("y", y, params.q)
    return _finite("q_log_product", lambda: lx + ly + (1.0 - params.q) * lx * ly)


def q_log_quotient(x, y, params: QLogParams):
    """Right-hand side of the quotient rule.

    qlog(x/y) = (qlog(x) - qlog(y)) / y**(1 - q)
    """
    lx, (y, ly) = q_log(x, params), _q_log_of("y", y, params.q)
    return _finite("q_log_quotient", lambda: (lx - ly) / y ** (1.0 - params.q))


def q_log_reciprocal(y, params: QLogParams):
    """Right-hand side of the reciprocal rule.

    qlog(1/y) = -qlog(y) / y**(1 - q)
    """
    y, ly = _q_log_of("y", y, params.q)
    return _finite("q_log_reciprocal", lambda: -ly / y ** (1.0 - params.q))
