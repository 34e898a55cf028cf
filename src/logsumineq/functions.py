"""Scalar function specifications used throughout the package.

A FunctionSpec names a concrete scalar function together with its parameters.
The same specs drive plain scalar evaluation, the convexity grid checks, and
the Hermitian functional calculus, so every code path applies literally the
same f.  An optional additive offset supports shifted variants such as
sqrt(x) - 1 (useful when a check requires f(1) = 0).

Each family has one formula (_formula) and one domain rule (_outside), and a
spec is validated once, when it is built.  evaluate and the row-batched
_apply_rows both run that formula, so a row of a stack gets the bits of a
call on that row alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .qlog import _q_log

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

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown function family {self.family!r}")
        if not math.isfinite(self.offset):
            raise DomainError("offset must be finite")
        if self.family in ("power", "q_log", "shifted_log"):
            if self.param is None or not math.isfinite(self.param):
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
        bad = _outside(arr, *self.domain())
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
            return not _outside(0.0, *self.domain())
        return True

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, values):
        out = _formula(self, self.check_domain(values), self.param)
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


def _outside(x, lo, hi, lo_open):
    """Where x lies outside the domain (lo, hi, lo_open) of FunctionSpec.domain; NaN is outside."""
    return np.isnan(x) | (x < lo) | (x > hi) | ((x == lo) & lo_open)


def _formula(f: FunctionSpec, arr: np.ndarray, param) -> np.ndarray:
    """f at arr, already checked in f's domain, offset included: the one formula of each family.

    param is f.param, or for power and q_log a column of parameters, one per
    row of arr; numpy's pow and _q_log give each row the arithmetic of a call
    with its own parameter.
    """
    if f.family == "identity":
        out = arr.copy()
    elif f.family == "log":
        out = np.log(arr)
    elif f.family == "exp":
        out = np.exp(arr)
    elif f.family == "power":
        out = arr.astype(float) ** param
    elif f.family == "q_log":
        out = _q_log(arr, param)
    elif f.family == "shifted_log":
        out = np.log(arr + float(param))
    elif f.family == "rational":
        out = arr / (arr * arr + 2.0)
    else:  # tabulated
        xs, ys = f.grid
        out = np.interp(arr, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    return out + f.offset if f.offset != 0.0 else out


# Scalar exponents that numpy's x ** r takes by reciprocal, sqrt and square,
# whose last bit can differ from its pow with an array of exponents.
_FAST_POWERS = (-1.0, 0.5, 2.0)


def _apply_rows(fs, X: np.ndarray, rows=None) -> np.ndarray:
    """fs(X) for one FunctionSpec fs, else fs[t](X[t]) for each entry t of X's first axis,
    or fs[rows[t]](X[t]) when rows is given.

    Every row is checked in its spec's domain first, and the first failing
    row raises its one-row message.  Then each group of rows gets one call
    of _formula: the rows of one spec, or of the power or q_log specs that
    share family and offset, with their parameters as a column.
    Domains and groups are taken once per distinct spec object, and a group
    that covers every row runs on X whole.
    """
    if isinstance(fs, FunctionSpec):
        return fs(X)
    by_id = dict(zip(map(id, fs), fs))  # the distinct spec objects, in order of first row
    number = {key: k for k, key in enumerate(by_id)}
    pos = np.fromiter(map(number.__getitem__, map(id, fs)), dtype=np.intp, count=len(fs))
    if rows is not None:
        pos = pos[rows]
    specs = list(by_id.values())
    column = (-1,) + (1,) * (X.ndim - 1)
    if len(specs) == 1:
        lo, hi, lo_open = specs[0].domain()
    else:
        domains = zip(*(f.domain() for f in specs))
        lo, hi, lo_open = (np.array(v)[pos].reshape(column) for v in domains)
    bad = ~np.isfinite(X) | _outside(X, lo, hi, lo_open)
    if bad.any():
        t = int(np.flatnonzero(bad.reshape(len(pos), -1).any(axis=-1))[0])
        specs[pos[t]].check_domain(X[t])  # raises the one-row message
    groups: dict = {}  # the numbers of each group's distinct specs
    for k, f in enumerate(specs):
        batched = f.family == "q_log" or (f.family == "power" and f.param not in _FAST_POWERS)
        groups.setdefault((f.family, f.offset) if batched else f, []).append(k)

    def formula(key, ks, sel):
        f = specs[ks[0]]
        param = f.param
        if isinstance(key, tuple) and len(ks) > 1:  # each row's parameter, as a column
            params = np.zeros(len(specs))
            params[ks] = [specs[k].param for k in ks]
            param = params[pos[sel]].reshape(column)
        return _formula(f, X[sel], param)

    if len(groups) == 1:  # one group covers every row: X whole
        return formula(*next(iter(groups.items())), slice(None))
    group_of = np.empty(len(specs), dtype=np.intp)
    for g, ks in enumerate(groups.values()):
        group_of[ks] = g
    row_group = group_of[pos]
    out = np.empty(np.shape(X))
    for g, (key, ks) in enumerate(groups.items()):
        sel = row_group == g
        out[sel] = formula(key, ks, sel)
    return out


def identity_fn() -> FunctionSpec:
    return FunctionSpec("identity")


def log_fn() -> FunctionSpec:
    return FunctionSpec("log")


def exp_fn() -> FunctionSpec:
    return FunctionSpec("exp")


def power_fn(r: float, offset: float = 0.0) -> FunctionSpec:
    return FunctionSpec("power", param=float(r), offset=offset)


def q_log_fn(q: float, offset: float = 0.0) -> FunctionSpec:
    return FunctionSpec("q_log", param=float(q), offset=offset)


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
