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

Each statement has one kernel over a stack of T sequence pairs of one
length n, (T, n) arrays, that returns the lhs, rhs and gap (T,) of every
pair; the public function of a statement checks its one pair and runs the
kernel as the T=1 stack.  A kernel checks each domain and precondition once
over the whole stack and raises the one-pair message of the first failing
pair.  A row of a stack gets the bits of its T=1 run: the numpy work is
elementwise or a sum along the last axis, and a dropped term (a zero
weight) adds 0.0 to its row's sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, _tolerance
from .functions import FunctionSpec, _apply_rows, power_fn
from .qlog import QLogParams, _check_positive, _q_log

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
_MAX_GRID_POINTS = 100_000  # keeps each of the check's grids within a few MB
_EPS = float(np.finfo(float).eps)


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


def _verdict(lhs, rhs, gap, tol: float) -> InequalityVerdict:
    """The verdict of one pair (float fields), or of a stack (array fields over the pairs)."""
    tol = _tolerance(tol)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    holds = gap >= -tol * scale
    if np.ndim(gap) == 0:
        return InequalityVerdict(float(lhs), float(rhs), float(gap), tol, bool(holds))
    return InequalityVerdict(lhs, rhs, gap, tol, holds)


def _one(sides, tol: float) -> InequalityVerdict:
    """The verdict of the one pair of a T=1 kernel's (lhs, rhs, gap)."""
    return _verdict(*(side[0] for side in sides), tol)


def _stack(pair: SequencePair) -> tuple[np.ndarray, np.ndarray]:
    return np.array([pair.a]), np.array([pair.b])


def _positive(g, values: np.ndarray, name: str) -> np.ndarray:
    """g at each entry of the sequences name (T, n), checked strictly positive.

    g is a FunctionSpec, or one per pair.
    """
    gv = np.asarray(_apply_rows(g, values), dtype=float)
    if (gv <= 0.0).any():
        raise PreconditionError(f"g({name}_i) must be strictly positive for every i")
    return gv


def _active_sums(weights: np.ndarray, fx, active: np.ndarray) -> np.ndarray:
    """Each row's sum of weights * f over its active entries (0.0 for a row with none).

    fx(sel) evaluates f at the entries [sel] only, so f never sees an
    inactive entry; an inactive entry adds 0.0 to its row's sum.
    """
    if active.all():
        return (weights * fx(...)).sum(axis=-1)
    terms = np.zeros(weights.shape)
    terms[active] = weights[active] * fx(active)
    return terms.sum(axis=-1)


def _ratio_bounds(g, a: np.ndarray, b: np.ndarray):
    """m_g, M_g and the aggregate ratio sum g(a_i) / sum g(b_i) (T,) of T pairs (T, n)."""
    gb = _positive(g, b, "b")
    ga = np.asarray(_apply_rows(g, a), dtype=float)
    ratios = ga / gb
    return ratios.min(axis=-1), ratios.max(axis=-1), ga.sum(axis=-1) / gb.sum(axis=-1)


def ratio_bounds(g: FunctionSpec, pair: SequencePair) -> RatioBounds:
    """Extremes of the pointwise ratio set g(a_i)/g(b_i).

    Requires every g(b_i) > 0 so the ratios are well defined.
    """
    m_g, M_g, _ = _ratio_bounds(g, *_stack(pair))
    return RatioBounds(float(m_g[0]), float(M_g[0]))


def _curvature_holds(h_kind: str, f, lo: np.ndarray, hi: np.ndarray, grid_points: int):
    """Whether each interval [lo_t, hi_t] (T,) passes convexity_check's grid test.

    f is a FunctionSpec, or one per interval.  Each grid is np.linspace's,
    computed with its arithmetic.
    """
    if h_kind == "xf1overx":
        if ((lo <= 0.0) & (0.0 <= hi)).any():
            raise DomainError("interval for x*f(1/x) must not contain 0")
    step = (hi - lo) / (grid_points - 1)
    xs = np.arange(grid_points) * step[:, None] + lo[:, None]
    xs[:, -1] = hi
    h = xs * np.asarray(_apply_rows(f, xs if h_kind == "xfx" else 1.0 / xs), dtype=float)
    delta = xs[:, 1] - xs[:, 0]
    second = (h[:, :-2] - 2.0 * h[:, 1:-1] + h[:, 2:]) / (delta * delta)[:, None]
    noise = 64.0 * _EPS * np.maximum(1.0, np.abs(h).max(axis=-1)) / (delta * delta)
    threshold = np.maximum(1e-9, noise)[:, None]
    if h_kind == "xfx":
        return (second >= -threshold).all(axis=-1)
    return (second <= threshold).all(axis=-1)


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
    if not 3 <= grid_points <= _MAX_GRID_POINTS:
        raise DomainError(f"grid_points must be in [3, {_MAX_GRID_POINTS}]")
    return bool(_curvature_holds(h_kind, f, np.array([lo]), np.array([hi]), int(grid_points))[0])


def _interval_degenerate(lo, hi):
    scale = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    return hi - lo <= 8.0 * _EPS * scale


def _require_curvature(h_kind: str, f: FunctionSpec, lo, hi, message) -> None:
    """The grid test on each finite, non-degenerate interval [lo_t, hi_t].

    The first failing interval raises PreconditionError(message(lo_t, hi_t)).
    """
    rows = np.flatnonzero(np.isfinite(lo) & ~_interval_degenerate(lo, hi))
    if rows.size:
        bad = ~_curvature_holds(h_kind, f, lo[rows], hi[rows], DEFAULT_GRID_POINTS)
        if bad.any():
            t = rows[np.flatnonzero(bad)[0]]
            raise PreconditionError(message(lo[t], hi[t]))


def _forward(f: FunctionSpec, g, a: np.ndarray, b: np.ndarray):
    """lhs, rhs and gap (T,) of the forward inequality for T pairs of sequences a, b (T, n)."""
    gb = _positive(g, b, "b")
    ga = np.asarray(_apply_rows(g, a), dtype=float)
    ratios = ga / gb
    active = ga != 0.0
    if not active.all() and not f.zero_weight_term_vanishes():
        raise DomainError(
            f"zero-weight terms are undefined for {f.label()}: x*f(x) does not vanish at 0"
        )
    sum_a, sum_b = ga.sum(axis=-1), gb.sum(axis=-1)
    lhs = _active_sums(ga, lambda sel: np.asarray(f(ratios[sel]), dtype=float), active)
    weighted = sum_a != 0.0
    total = sum_a[weighted] / sum_b[weighted]
    rhs = np.zeros(len(sum_a))
    rhs[weighted] = sum_a[weighted] * np.asarray(f(total), dtype=float)

    # Curvature hypothesis over the hull of the evaluated ratio points.
    lo = np.where(active, ratios, np.inf).min(axis=-1)
    hi = np.where(active, ratios, -np.inf).max(axis=-1)
    lo[weighted] = np.minimum(lo[weighted], total)
    hi[weighted] = np.maximum(hi[weighted], total)
    _require_curvature(
        "xfx",
        f,
        lo,
        hi,
        lambda lo, hi: (
            f"x*f(x) is not convex on the ratio interval [{lo:g}, {hi:g}] for {f.label()}"
        ),
    )
    return lhs, rhs, lhs - rhs


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
    return _one(_forward(f, g, *_stack(pair)), tol)


def _reverse(f: FunctionSpec, g, a: np.ndarray, b: np.ndarray):
    """lhs, rhs and gap (T,) of the reverse inequality for T pairs of sequences a, b (T, n)."""
    ga = _positive(g, a, "a")
    gb = _positive(g, b, "b")
    ratios = ga / gb
    _require_curvature(
        "xf1overx",
        f,
        ratios.min(axis=-1),
        ratios.max(axis=-1),
        lambda lo, hi: f"x*f(1/x) is not concave on [{lo:g}, {hi:g}] for {f.label()}",
    )
    lhs = (ga * np.asarray(f(gb / ga), dtype=float)).sum(axis=-1)
    sum_a, sum_b = ga.sum(axis=-1), gb.sum(axis=-1)
    rhs = sum_a * np.asarray(f(sum_b / sum_a), dtype=float)
    return lhs, rhs, rhs - lhs


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
    return _one(_reverse(f, g, *_stack(pair)), tol)


_RATIONAL_ENTRY_FLOOR = math.sqrt(2.0 / 3.0)
_RATIONAL_RATIO_CAP = math.sqrt(6.0)


def _rational_example(a: np.ndarray, b: np.ndarray):
    """lhs, rhs and gap (T,) of the rational example for T pairs of sequences a, b (T, n)."""
    if (a <= _RATIONAL_ENTRY_FLOOR).any() or (b <= _RATIONAL_ENTRY_FLOOR).any():
        raise PreconditionError("all entries must exceed sqrt(2/3)")
    r = b / a
    if (r > _RATIONAL_RATIO_CAP).any() or (r <= _RATIONAL_ENTRY_FLOOR).any():
        raise PreconditionError(
            "each ratio b_i/a_i must lie in (sqrt(2/3), sqrt(6)] for the curvature "
            "hypotheses to hold on the whole ratio interval"
        )
    lhs = (a * a * b / (2.0 * a * a + b * b)).sum(axis=-1)
    sa, sb = a.sum(axis=-1), b.sum(axis=-1)
    rhs = sa * sa * sb / (2.0 * sa * sa + sb * sb)
    return lhs, rhs, rhs - lhs


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
    return _one(_rational_example(*_stack(pair)), tol)


def _q_powers(a: np.ndarray, b: np.ndarray, q: np.ndarray, r: np.ndarray):
    """p = a**r and s = b**r (T, n) of T pairs (T, n), pair t with its own power r[t].

    Checks that no order q[t] is 2 and that p >= 0 and s > 0.
    """
    if (q == 2.0).any():
        raise PreconditionError("q = 2 has no inequality direction")
    powers = _apply_rows([power_fn(x) for x in r.tolist()], np.stack([a, b], axis=1))
    p, s = powers[:, 0], powers[:, 1]
    if (s <= 0.0).any():
        raise PreconditionError("b_i**r must be strictly positive for every i")
    if (p < 0.0).any():
        raise PreconditionError("a_i**r must be nonnegative")
    return p, s


def _q_sums(p: np.ndarray, s: np.ndarray, q: np.ndarray):
    """lhs, rhs and gap (T,) of the deformed-log inequality from the powers p, s (T, n)."""
    active = p > 0.0
    if (~active & (q >= 2.0)[:, None]).any():
        raise PreconditionError("zero entries are not extendable for q > 2")
    if not np.isfinite(q).all():
        QLogParams(float(q[~np.isfinite(q)][0]))  # raises the one-pair message

    def q_log(x, orders):
        return _q_log(_check_positive("x", x), orders)

    orders = np.broadcast_to(q[:, None], p.shape)
    core = _active_sums(p, lambda sel: q_log(p[sel] / s[sel], orders[sel]), active)
    sum_p, sum_s = p.sum(axis=-1), s.sum(axis=-1)
    live = sum_p != 0.0
    lhs, rhs = np.zeros(len(q)), np.zeros(len(q))
    ql, sum_p, sum_s = q[live], sum_p[live], sum_s[live]
    lhs[live] = sum_s ** (1.0 - ql) * core[live]
    rhs[live] = sum_p * (q_log(sum_p, ql) - q_log(sum_s, ql))
    raw = lhs - rhs
    return lhs, rhs, np.where(q < 2.0, raw, -raw)


def _q_log_sums(a: np.ndarray, b: np.ndarray, q: np.ndarray, r: np.ndarray):
    """lhs, rhs and gap (T,) of the deformed-log inequality for T pairs (T, n).

    Pair t has its own order q[t] and power r[t].
    """
    return _q_sums(*_q_powers(a, b, q, r), q)


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
    return _one(_q_log_sums(*_stack(pair), np.array([float(q)]), np.array([float(r)])), tol)
