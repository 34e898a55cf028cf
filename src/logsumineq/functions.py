"""Scalar function specifications used throughout the package.

A FunctionSpec names a concrete scalar function together with its parameters.
The same specs drive plain scalar evaluation, the convexity grid checks, and
the Hermitian functional calculus, so every code path applies literally the
same f.  An optional additive offset supports shifted variants such as
sqrt(x) - 1 (useful when a check requires f(1) = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .qlog import QLogParams, _q_log, q_log

__all__ = [
    "FunctionSpec",
    "identity_fn",
    "log_fn",
    "exp_fn",
    "power_fn",
    "q_log_fn",
    "shifted_log_fn",
    "rational_fn",
    "tabulated_fn",
    "parse_function",
]

_FAMILIES = (
    "identity",
    "log",
    "exp",
    "power",
    "q_log",
    "shifted_log",
    "rational",
    "tabulated",
)


@dataclass(frozen=True)
class FunctionSpec:
    """A named scalar function with parameters and an optional additive offset.

    family one of: identity, log, exp, power (param = exponent r != 0),
    q_log (param = order q), shifted_log (param = shift c > 0, f = log(c + x)),
    rational (x / (x**2 + 2)), tabulated (linear interpolation over grid).
    """

    family: str
    param: float | None = None
    offset: float = 0.0
    grid: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    limit_window: float = 1e-9

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown function family {self.family!r}")
        if not np.isfinite(self.offset):
            raise DomainError("offset must be finite")
        if self.family in ("power", "q_log", "shifted_log"):
            if self.param is None or not np.isfinite(self.param):
                raise DomainError(f"{self.family} requires a finite parameter")
            if self.family == "power" and self.param == 0.0:
                raise DomainError("power exponent must be nonzero")
            if self.family == "shifted_log" and self.param <= 0.0:
                raise DomainError("shifted_log shift must be positive")
        if self.family == "tabulated":
            if self.grid is None:
                raise DomainError("tabulated spec requires a grid")
            xs, ys = self.grid
            if len(xs) != len(ys) or len(xs) < 2:
                raise DomainError("tabulated grid must pair at least two nodes")
            ax = np.asarray(xs, dtype=float)
            if not (np.all(np.isfinite(ax)) and np.all(np.isfinite(ys))):
                raise DomainError("tabulated grid must be finite")
            if np.any(np.diff(ax) <= 0):
                raise DomainError("tabulated grid abscissae must be strictly increasing")

    # -- domain ------------------------------------------------------------

    def domain(self) -> tuple[float, float, bool]:
        """Return (lo, hi, lo_open) for the maximal real domain."""
        if self.family == "log":
            return 0.0, np.inf, True
        if self.family == "q_log":
            return 0.0, np.inf, True
        if self.family == "shifted_log":
            return -float(self.param), np.inf, True
        if self.family == "power":
            r = float(self.param)
            if float(r).is_integer():
                if r > 0:
                    return -np.inf, np.inf, False
                return 0.0, np.inf, True  # negative integer powers: keep off 0
            if r > 0:
                return 0.0, np.inf, False
            return 0.0, np.inf, True
        if self.family == "tabulated":
            xs = self.grid[0]
            return float(xs[0]), float(xs[-1]), False
        return -np.inf, np.inf, False

    def check_domain(self, values, what: str = "argument") -> np.ndarray:
        arr = np.asarray(values, dtype=float)
        if not np.isfinite(arr).all():
            raise DomainError(f"{what} of {self.label()} must be finite")
        lo, hi, lo_open = self.domain()
        bad = (arr < lo) | (arr > hi) | ((arr == lo) & lo_open)
        if bad.any():
            offender = float(arr[bad].flat[0])
            raise DomainError(f"{what} {offender} outside domain of {self.label()}")
        return arr

    def zero_weight_term_vanishes(self) -> bool:
        """True when x*f(x) -> 0 as x -> 0+, so a zero-weight term may be dropped."""
        if self.family == "q_log":
            return float(self.param) < 2.0
        if self.family == "power":
            return float(self.param) > -1.0
        if self.family == "tabulated":
            lo, hi, _ = self.domain()
            return lo <= 0.0 <= hi
        return True

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, values):
        arr = self.check_domain(values)
        if self.family == "identity":
            out = arr.copy()
        elif self.family == "log":
            out = np.log(arr)
        elif self.family == "exp":
            out = np.exp(arr)
        elif self.family == "power":
            r = float(self.param)
            out = arr.astype(float) ** r
        elif self.family == "q_log":
            out = np.asarray(q_log(arr, QLogParams(float(self.param), self.limit_window)))
        elif self.family == "shifted_log":
            out = np.log(arr + float(self.param))
        elif self.family == "rational":
            out = arr / (arr * arr + 2.0)
        else:  # tabulated
            xs, ys = self.grid
            out = np.interp(arr, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
        if self.offset != 0.0:
            out = out + self.offset
        return float(out) if np.ndim(values) == 0 else out

    def __call__(self, values):
        return self.evaluate(values)

    def label(self) -> str:
        if self.family in ("power", "q_log", "shifted_log"):
            base = f"{self.family}({self.param:g})"
        else:
            base = self.family
        if self.offset:
            base += f"{self.offset:+g}"
        return base


# Scalar exponents that numpy's x ** r takes by reciprocal, sqrt and square,
# whose last bit can differ from its pow with an array of exponents.
_FAST_POWERS = (-1.0, 0.5, 2.0)


def _apply_rows(fs, X: np.ndarray) -> np.ndarray:
    """fs(X) for one FunctionSpec fs, else fs[t](X[t]) for each entry t of X's first axis.

    Rows that share a spec are evaluated in one call, and so are the power
    or q_log specs that differ only in their parameter (_with_params).
    Every row gets the bits of a call on that row alone.
    """
    if isinstance(fs, FunctionSpec):
        return fs(X)
    rows: dict[FunctionSpec, list[int]] = {}
    for t, f in enumerate(fs):
        rows.setdefault(f, []).append(t)
    if len(rows) == 1:
        return fs[0](X)
    out = np.empty(np.shape(X))
    batches: dict[tuple, list[FunctionSpec]] = {}
    for f in rows:
        if f.family == "q_log" or (f.family == "power" and f.param not in _FAST_POWERS):
            batches.setdefault((f.family, f.offset, f.limit_window), []).append(f)
    for specs in batches.values():
        if len(specs) > 1:
            ts = [t for f in specs for t in rows.pop(f)]
            out[ts] = _with_params([fs[t] for t in ts], X[ts])
    for f, ts in rows.items():
        out[ts] = f(X[ts])
    return out


def _with_params(fs: list[FunctionSpec], X: np.ndarray) -> np.ndarray:
    """fs[t](X[t]) in one call, for specs of one family, offset and window that differ in param.

    The arithmetic is evaluate's, with the parameter as a column; numpy's
    pow with an array of exponents matches its pow with each scalar one
    except at the exponents _FAST_POWERS, which _apply_rows keeps apart.
    """
    column = (-1,) + (1,) * (X.ndim - 1)
    lo, hi, lo_open = (np.reshape(v, column) for v in zip(*(f.domain() for f in fs)))
    bad = ~np.isfinite(X) | (X < lo) | (X > hi) | ((X == lo) & lo_open)
    if bad.any():
        t = int(np.flatnonzero(bad.reshape(len(fs), -1).any(axis=-1))[0])
        fs[t].check_domain(X[t])  # raises the one-row message
    param = np.reshape([f.param for f in fs], column)
    first = fs[0]
    if first.family == "power":
        out = X.astype(float) ** param
    else:
        out = _q_log(X, param, first.limit_window)
    return out + first.offset if first.offset != 0.0 else out


def identity_fn() -> FunctionSpec:
    return FunctionSpec("identity")


def log_fn() -> FunctionSpec:
    return FunctionSpec("log")


def exp_fn() -> FunctionSpec:
    return FunctionSpec("exp")


def power_fn(r: float, offset: float = 0.0) -> FunctionSpec:
    return FunctionSpec("power", param=float(r), offset=offset)


def q_log_fn(q: float, limit_window: float = 1e-9, offset: float = 0.0) -> FunctionSpec:
    QLogParams(float(q), limit_window)  # validate eagerly
    return FunctionSpec("q_log", param=float(q), offset=offset, limit_window=limit_window)


def shifted_log_fn(c: float) -> FunctionSpec:
    return FunctionSpec("shifted_log", param=float(c))


def rational_fn() -> FunctionSpec:
    return FunctionSpec("rational")


def tabulated_fn(xs, ys) -> FunctionSpec:
    grid = (tuple(float(x) for x in xs), tuple(float(y) for y in ys))
    return FunctionSpec("tabulated", grid=grid)


def parse_function(name: str, param: float | None = None, offset: float = 0.0) -> FunctionSpec:
    """Build a FunctionSpec from CLI-style arguments."""
    name = name.strip().lower()
    if name in ("identity", "log", "exp", "rational"):
        return FunctionSpec(name, offset=offset)
    if name in ("power", "q_log", "shifted_log"):
        if param is None:
            raise DomainError(f"function {name!r} requires a parameter")
        return FunctionSpec(name, param=float(param), offset=offset)
    raise DomainError(f"unknown function name {name!r}")
