"""Scalar log-sum type inequalities.

The forward inequality: for sequences a, b and functions f, g with every
g(b_i) > 0 and x*f(x) convex on the ratio interval,

    sum_i g(a_i) f(g(a_i)/g(b_i))  >=  (sum g(a_i)) f(sum g(a_i) / sum g(b_i)).

The reverse inequality: for g(a_i) > 0 and x*f(1/x) concave on the ratio
interval,

    sum_i g(a_i) f(g(b_i)/g(a_i))  <=  (sum g(a_i)) f(sum g(b_i) / sum g(a_i)).

Both reduce to the classical log-sum inequality at f = log, g = identity.
The curvature hypotheses are always verified numerically on a uniform grid
(second divided differences), because tabulated function specs carry no
symbolic derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .functions import FunctionSpec, power_fn
from .qlog import QLogParams, q_log

__all__ = [
    "SequencePair",
    "RatioBounds",
    "InequalityVerdict",
    "ratio_bounds",
    "convexity_check",
    "generalized_log_sum_gap",
    "reverse_log_sum_gap",
    "rational_example_gap",
    "q_log_sum_gap",
]

DEFAULT_TOLERANCE = 1e-9
DEFAULT_GRID_POINTS = 101


@dataclass(frozen=True)
class SequencePair:
    """Two equal-length finite real sequences."""

    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self) -> None:
        a = tuple(float(v) for v in self.a)
        b = tuple(float(v) for v in self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(a) != len(b) or len(a) < 1:
            raise DomainError("sequences must have equal length >= 1")
        if not all(math.isfinite(v) for v in a + b):
            raise DomainError("sequence entries must be finite")

    def __len__(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class RatioBounds:
    m_g: float
    M_g: float


@dataclass(frozen=True)
class InequalityVerdict:
    """Signed-gap verdict: holds iff gap >= -tolerance * max(1, |lhs|, |rhs|)."""

    lhs: float
    rhs: float
    gap: float
    tolerance: float
    holds: bool


def _verdict(lhs: float, rhs: float, gap: float, tol: float) -> InequalityVerdict:
    scale = max(1.0, abs(lhs), abs(rhs))
    return InequalityVerdict(float(lhs), float(rhs), float(gap), float(tol), bool(gap >= -tol * scale))


def _positive(g: FunctionSpec, values: tuple[float, ...], name: str) -> np.ndarray:
    """g at each entry of the sequence name, checked strictly positive."""
    gv = np.asarray(g(np.asarray(values)), dtype=float)
    if np.any(gv <= 0.0):
        raise PreconditionError(f"g({name}_i) must be strictly positive for every i")
    return gv


def ratio_bounds(g: FunctionSpec, pair: SequencePair) -> RatioBounds:
    """Extremes of the pointwise ratio set g(a_i)/g(b_i).

    Requires every g(b_i) > 0 so the ratios are well defined.
    """
    gb = _positive(g, pair.b, "b")
    ratios = np.asarray(g(np.asarray(pair.a)), dtype=float) / gb
    return RatioBounds(float(ratios.min()), float(ratios.max()))


def convexity_check(
    h_kind: str,
    f: FunctionSpec,
    interval: tuple[float, float],
    grid_points: int = DEFAULT_GRID_POINTS,
) -> bool:
    """Grid test of the curvature hypothesis.

    h_kind "xfx" tests convexity of h(x) = x*f(x): every second divided
    difference on the uniform grid must be >= -1e-9.  h_kind "xf1overx"
    tests concavity of h(x) = x*f(1/x): every second divided difference
    must be <= 1e-9.  The threshold is widened to the round-off noise
    floor 64*eps*max(1,|h|)/delta^2 when that exceeds 1e-9, since curvature
    below that level is not numerically resolvable on the given grid.
    """
    if h_kind not in ("xfx", "xf1overx"):
        raise DomainError(f"unknown curvature kind {h_kind!r}")
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise DomainError("interval must be finite and non-degenerate")
    if grid_points < 3:
        raise DomainError("grid_points must be at least 3")
    xs = np.linspace(lo, hi, int(grid_points))
    if h_kind == "xfx":
        h = xs * np.asarray(f(xs), dtype=float)
    else:
        if lo <= 0.0 <= hi:
            raise DomainError("interval for x*f(1/x) must not contain 0")
        h = xs * np.asarray(f(1.0 / xs), dtype=float)
    delta = xs[1] - xs[0]
    second = (h[:-2] - 2.0 * h[1:-1] + h[2:]) / (delta * delta)
    noise = 64.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(h)))) / (delta * delta)
    threshold = max(1e-9, noise)
    if h_kind == "xfx":
        return bool(np.all(second >= -threshold))
    return bool(np.all(second <= threshold))


def _interval_degenerate(lo: float, hi: float) -> bool:
    return hi - lo <= 8.0 * np.finfo(float).eps * max(1.0, abs(lo), abs(hi))


def generalized_log_sum_gap(
    f: FunctionSpec,
    g: FunctionSpec,
    pair: SequencePair,
    tol: float = DEFAULT_TOLERANCE,
) -> InequalityVerdict:
    """Forward inequality; gap = lhs - rhs, expected >= 0.

    g(b_i) must be positive; g(a_i) may take any sign that f's domain admits.
    Terms with g(a_i) = 0 contribute 0 (the continuous extension of x*f(x)
    at 0, e.g. 0*log 0 = 0); this requires x*f(x) -> 0 at 0+, which holds for
    every built-in family except q_log with q >= 2 and power with r <= -1.
    """
    gb = _positive(g, pair.b, "b")
    ga = np.asarray(g(np.asarray(pair.a)), dtype=float)
    ratios = ga / gb
    active = ga != 0.0
    if np.any(~active) and not f.zero_weight_term_vanishes():
        raise DomainError(
            f"zero-weight terms are undefined for {f.label()}: x*f(x) does not vanish at 0"
        )

    sum_a = float(ga.sum())
    sum_b = float(gb.sum())
    if np.any(active):
        lhs = float(np.sum(ga[active] * np.asarray(f(ratios[active]), dtype=float)))
    else:
        lhs = 0.0
    rhs = sum_a * float(f(sum_a / sum_b)) if sum_a != 0.0 else 0.0

    # Curvature hypothesis over the hull of the evaluated ratio points.
    points = list(ratios[active])
    if sum_a != 0.0:
        points.append(sum_a / sum_b)
    if points:
        lo, hi = min(points), max(points)
        if not _interval_degenerate(lo, hi):
            if not convexity_check("xfx", f, (lo, hi)):
                raise PreconditionError(
                    f"x*f(x) is not convex on the ratio interval [{lo:g}, {hi:g}] for {f.label()}"
                )
    return _verdict(lhs, rhs, lhs - rhs, tol)


def reverse_log_sum_gap(
    f: FunctionSpec,
    g: FunctionSpec,
    pair: SequencePair,
    tol: float = DEFAULT_TOLERANCE,
) -> InequalityVerdict:
    """Reverse inequality; gap = rhs - lhs, expected >= 0.

    Requires g(a_i) > 0 (they act as Jensen weights after rescaling) and
    x*f(1/x) concave on the ratio interval [m_g, M_g].
    """
    ga = _positive(g, pair.a, "a")
    gb = _positive(g, pair.b, "b")
    ratios = ga / gb
    m_g, M_g = float(ratios.min()), float(ratios.max())
    if not _interval_degenerate(m_g, M_g):
        if not convexity_check("xf1overx", f, (m_g, M_g)):
            raise PreconditionError(
                f"x*f(1/x) is not concave on [{m_g:g}, {M_g:g}] for {f.label()}"
            )
    lhs = float(np.sum(ga * np.asarray(f(gb / ga), dtype=float)))
    sum_a = float(ga.sum())
    sum_b = float(gb.sum())
    rhs = sum_a * float(f(sum_b / sum_a))
    return _verdict(lhs, rhs, rhs - lhs, tol)


_RATIONAL_ENTRY_FLOOR = math.sqrt(2.0 / 3.0)
_RATIONAL_RATIO_CAP = math.sqrt(6.0)


def rational_example_gap(pair: SequencePair, tol: float = DEFAULT_TOLERANCE) -> InequalityVerdict:
    """Reverse inequality specialized to f(x) = x/(x**2 + 2), g = identity.

        sum_i a_i**2 b_i / (2 a_i**2 + b_i**2)
            <= (sum a)**2 (sum b) / (2 (sum a)**2 + (sum b)**2)

    Domain enforcement: every entry must exceed sqrt(2/3), and every
    pointwise ratio b_i/a_i must lie in (sqrt(2/3), sqrt(6)].  The upper cap
    keeps the ratio interval inside the concavity region of x*f(1/x)
    (which needs x > 1/sqrt(6)); the lower cap keeps the reciprocal ratios
    f is evaluated at inside the concavity region of x*f(x) (x > sqrt(2/3)).
    Inputs outside this box are rejected rather than evaluated.
    """
    a = np.asarray(pair.a, dtype=float)
    b = np.asarray(pair.b, dtype=float)
    if np.any(a <= _RATIONAL_ENTRY_FLOOR) or np.any(b <= _RATIONAL_ENTRY_FLOOR):
        raise PreconditionError("all entries must exceed sqrt(2/3)")
    r = b / a
    if np.any(r > _RATIONAL_RATIO_CAP) or np.any(r <= _RATIONAL_ENTRY_FLOOR):
        raise PreconditionError(
            "each ratio b_i/a_i must lie in (sqrt(2/3), sqrt(6)] for the curvature "
            "hypotheses to hold on the whole ratio interval"
        )
    lhs = float(np.sum(a * a * b / (2.0 * a * a + b * b)))
    sa = float(a.sum())
    sb = float(b.sum())
    rhs = sa * sa * sb / (2.0 * sa * sa + sb * sb)
    return _verdict(lhs, rhs, rhs - lhs, tol)


def q_log_sum_gap(
    pair: SequencePair,
    q: float,
    r: float,
    tol: float = DEFAULT_TOLERANCE,
) -> InequalityVerdict:
    """Deformed-log analogue of the log-sum inequality under g(x) = x**r.

    With p_i = a_i**r and s_i = b_i**r,

        lhs = (sum s)**(1-q) * sum_i p_i qlog(p_i/s_i)
        rhs = (sum p) * (qlog(sum p) - qlog(sum s)).

    For q < 2 the claim is lhs >= rhs; for q > 2 it reverses.  gap is
    oriented so that nonnegative means the claimed direction holds.
    """
    if float(q) == 2.0:
        raise PreconditionError("q = 2 has no inequality direction")
    power = power_fn(float(r))
    p = np.asarray(power(np.asarray(pair.a)), dtype=float)
    s = np.asarray(power(np.asarray(pair.b)), dtype=float)
    if np.any(s <= 0.0):
        raise PreconditionError("b_i**r must be strictly positive for every i")
    if np.any(p < 0.0):
        raise PreconditionError("a_i**r must be nonnegative")
    active = p > 0.0
    if np.any(~active) and float(q) >= 2.0:
        raise PreconditionError("zero entries are not extendable for q > 2")
    params = QLogParams(float(q))
    sum_p = float(p.sum())
    sum_s = float(s.sum())
    if sum_p == 0.0:
        lhs = 0.0
        rhs = 0.0
    else:
        core = float(np.sum(p[active] * q_log(p[active] / s[active], params)))
        lhs = sum_s ** (1.0 - float(q)) * core
        rhs = sum_p * (q_log(sum_p, params) - q_log(sum_s, params))
    raw = lhs - rhs
    gap = raw if float(q) < 2.0 else -raw
    return _verdict(lhs, rhs, gap, tol)
