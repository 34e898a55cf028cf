"""Batch verification suites, deterministic trial seeding, and the
contractive counterexample search.

Trial t of a run uses the rng seeded with (config.seed + t) mod 2**64, and
every generator draw comes from that stream in a fixed order, so a report's
worst_case_seed replays its worst trial exactly:

    run_suite(replace(config, trials=1, seed=report.worst_case_seed))

One loop serves run_suite and counterexample_search: it hands each block of
consecutive trial seeds to the suite's evaluator.  The scalar and trace
suites evaluate one trial at a time.  The seven Loewner suites
(operator_jensen, perspective_sum, operator_shannon, pooled_inverse,
pooled_mean, split_mean, mean_monotonicity) are each a draw plus a stacked
kernel: every trial is drawn from its own seed, and the trials of each
(n, m) group of a block are built and evaluated as one stack (at most one
qr or svd per build, one eigensolver call per kernel step), bitwise equal
to one-trial runs, so the blocks change no number in a report.
Search-mode candidates keep the draws of their first pass and are
re-verified through the independent Jacobi eigensolver at a tightened
absolute tolerance before they are reported as findings: the same stacked
kernel over each (n, m) group of a chunk of candidates, with three
jacobi_eigh calls per group in place of eigh.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import generators as gen
from .errors import DomainError
from .functions import FunctionSpec, identity_fn, log_fn, power_fn, q_log_fn, rational_fn
from .loewner import (
    _mean_monotonicity,
    _operator_jensen,
    _operator_shannon,
    _perspective_sums,
    _pooled_inverse,
    _pooled_mean,
    _split_mean,
    perspective_sum_residual,  # noqa: F401 (the benchmark self-tests read it from harness)
)
from .matfun import _total, _verdict
from .scalar import (
    SequencePair,
    convexity_check,
    generalized_log_sum_gap,
    q_log_sum_gap,
    ratio_bounds,
    rational_example_gap,
    reverse_log_sum_gap,
)
from .traceform import (
    exp_log_trace_gap,
    q_trace_gap,
    quantum_relative_entropy,
    reverse_trace_gap,
    trace_log_sum_gap,
    von_neumann_entropy,
)

__all__ = [
    "TrialConfig",
    "SuiteReport",
    "SUITES",
    "run_suite",
    "counterexample_search",
    "report_to_json",
]

_SEED_MOD = 2**64
FAMILY_KINDS = ("expansive", "contractive", "unconstrained")
LHS_FORMS = ("perspective_sum", "sum_fb")
RECHECK_ABS_TOL = 1e-6
# Consecutive trials handed to an evaluator at once: at most _BLOCK, and at most
# as many as keep (m + 1) complex n x n matrices per trial within _BLOCK_BYTES,
# which bounds memory at every size (256 trials take ~100 MB at n=64, m=16).
_BLOCK = 256
_BLOCK_BYTES = 2**24
# Eigenvalue window of both matrices of the trace suites' commuting pairs.
_TRACE_SPECTRUM = (1e-2, 10.0)


@dataclass(frozen=True)
class TrialConfig:
    """Knobs for one suite run; every field participates in determinism."""

    suite: str
    trials: int = 1000
    seed: int = 0
    n: int = 4
    m: int = 2
    tolerance: float = 1e-9
    spectrum_range: tuple[float, float] = (0.5, 2.0)
    family_kind: str = "expansive"
    lhs_form: str = "perspective_sum"

    def __post_init__(self) -> None:
        if not self.suite:
            raise DomainError("suite name must be non-empty")
        for name in ("trials", "seed", "n", "m"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not 1 <= self.trials:
            raise DomainError("trials must be >= 1")
        if not 0 <= self.seed < _SEED_MOD:
            raise DomainError("seed must be a 64-bit unsigned integer")
        if not 1 <= self.n <= 64:
            raise DomainError("dimension n must be in [1, 64]")
        if not 1 <= self.m <= 16:
            raise DomainError("family size m must be in [1, 16]")
        if not (np.isfinite(self.tolerance) and self.tolerance > 0):
            raise DomainError("tolerance must be positive")
        lo, hi = self.spectrum_range
        if not (np.isfinite(lo) and np.isfinite(hi) and 0 < lo < hi):
            raise DomainError("spectrum_range must satisfy 0 < lo < hi")
        if self.family_kind not in FAMILY_KINDS:
            raise DomainError(f"family_kind must be one of {FAMILY_KINDS}")
        if self.lhs_form not in LHS_FORMS:
            raise DomainError(f"lhs_form must be one of {LHS_FORMS}")
        object.__setattr__(self, "spectrum_range", (float(lo), float(hi)))


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    config: TrialConfig
    trials: int
    violations: int
    worst_gap: float
    worst_case_seed: int
    wall_time: float
    findings: tuple[dict, ...] = ()


def _trial_seed(config: TrialConfig, index: int) -> int:
    return (config.seed + index) % _SEED_MOD


def _size(rng: np.random.Generator, cap: int) -> int:
    return int(rng.integers(1, cap + 1))


# -- scalar suites ---------------------------------------------------------


def _suite_scalar_log_sum(rng, config):
    pair = gen.rand_sequence_pair(rng, _size(rng, config.n))
    v = generalized_log_sum_gap(log_fn(), identity_fn(), pair, config.tolerance)
    return v.gap, v.holds


def _suite_scalar_equality(rng, config):
    n = _size(rng, config.n)
    b = gen.rand_sequence(rng, n)
    c = rng.uniform(0.1, 10.0)
    pair = SequencePair(tuple(c * b), tuple(b))
    v = generalized_log_sum_gap(log_fn(), identity_fn(), pair, config.tolerance)
    scale = max(1.0, abs(v.lhs), abs(v.rhs))
    return -abs(v.gap), abs(v.gap) <= config.tolerance * scale


def _suite_scalar_reverse(rng, config):
    pair = gen.rand_sequence_pair(rng, _size(rng, config.n))
    v = reverse_log_sum_gap(log_fn(), identity_fn(), pair, config.tolerance)
    return v.gap, v.holds


def _suite_rational_reverse(rng, config):
    n = _size(rng, config.n)
    a = rng.uniform(1.0, 10.0, n)
    ratios = rng.uniform(0.9, 2.4, n)
    pair = SequencePair(tuple(a), tuple(ratios * a))
    v = rational_example_gap(pair, config.tolerance)
    return v.gap, v.holds


def _draw_q(rng) -> float:
    # Stay off the q = 2 degeneracy where the inequality has no direction.
    if rng.random() < 0.7:
        return float(rng.uniform(-2.0, 1.9))
    return float(rng.uniform(2.1, 3.5))


def _suite_q_log_sum(rng, config):
    pair = gen.rand_sequence_pair(rng, _size(rng, config.n))
    q = _draw_q(rng)
    r = float(rng.uniform(0.5, 2.0))
    v = q_log_sum_gap(pair, q, r, config.tolerance)
    return v.gap, v.holds


def _suite_q_direction(rng, config):
    pair = gen.rand_sequence_pair(rng, _size(rng, config.n))
    worst = math.inf
    holds = True
    for q in (0.0, 0.5, 1.5, 2.5, 3.0):
        v = q_log_sum_gap(pair, q, 1.0, config.tolerance)
        worst = min(worst, v.gap)
        holds = holds and v.holds
    return worst, holds


def _suite_ratio_bounds(rng, config):
    pair = gen.rand_sequence_pair(rng, _size(rng, config.n))
    g = identity_fn() if rng.random() < 0.5 else power_fn(2.0)
    rb = ratio_bounds(g, pair)
    ga = np.asarray(g(np.asarray(pair.a)), dtype=float)
    gb = np.asarray(g(np.asarray(pair.b)), dtype=float)
    agg = float(ga.sum() / gb.sum())
    tol = config.tolerance * max(1.0, abs(rb.m_g), abs(rb.M_g))
    holds = rb.m_g <= rb.M_g + tol and rb.m_g - tol <= agg <= rb.M_g + tol
    gap = min(rb.M_g - rb.m_g, agg - rb.m_g, rb.M_g - agg)
    return gap, holds


def _suite_convexity_check(rng, config):
    case = int(rng.integers(4))
    if case == 0:
        ok = convexity_check("xfx", log_fn(), (0.05 + 0.1 * rng.random(), 10.0), 101)
        expected = True
    elif case == 1:
        ok = convexity_check("xfx", q_log_fn(float(rng.uniform(2.05, 4.0))), (0.1, 10.0), 101)
        expected = False
    elif case == 2:
        ok = convexity_check(
            "xf1overx", rational_fn(), (float(rng.uniform(0.42, 0.6)), float(rng.uniform(5, 10))), 201
        )
        expected = True
    else:
        ok = convexity_check("xfx", power_fn(float(rng.uniform(0.2, 2.0))), (0.01, 5.0), 101)
        expected = True
    agree = ok == expected
    return 0.0 if agree else -1.0, agree


# -- trace suites ----------------------------------------------------------


def _commuting_pd_pair(rng, config):
    n = _size(rng, config.n)
    return gen.rand_commuting_pair(rng, n, _TRACE_SPECTRUM, _TRACE_SPECTRUM)


def _suite_trace_log_sum(rng, config):
    A, B = _commuting_pd_pair(rng, config)
    v = trace_log_sum_gap(log_fn(), identity_fn(), A, B, config.tolerance)
    return v.gap, v.holds


def _suite_trace_reverse(rng, config):
    A, B = _commuting_pd_pair(rng, config)
    v = reverse_trace_gap(log_fn(), identity_fn(), A, B, config.tolerance)
    return v.gap, v.holds


def _suite_q_trace(rng, config):
    A, B = _commuting_pd_pair(rng, config)
    v = q_trace_gap(A, B, _draw_q(rng), float(rng.uniform(0.5, 2.0)), config.tolerance)
    return v.gap, v.holds


def _suite_exp_log_trace(rng, config):
    A, B = _commuting_pd_pair(rng, config)
    v = exp_log_trace_gap(A, B, config.tolerance)
    return v.gap, v.holds


def _suite_relative_entropy(rng, config):
    rho, sigma = gen.rand_density_pair(rng, _size(rng, config.n))
    d = quantum_relative_entropy(rho, sigma)
    return d, d >= -config.tolerance


def _suite_entropy_bound(rng, config):
    n = _size(rng, config.n)
    s = von_neumann_entropy(gen.rand_density(rng, n))
    margin = min(s, math.log(n) - s)
    return margin, margin >= -config.tolerance


# -- operator-order suites --------------------------------------------------


class _Draw(NamedTuple):
    """The rng draws of one trial, in draw order."""

    n: int
    m: int  # family size; 1 for the suites that draw single matrices
    params: tuple  # the draws besides the Gaussians: spectra, amplitudes, scales
    gaussians: tuple[np.ndarray, ...]  # the complex Gaussian (n, n) of each matrix
    f: FunctionSpec | None = None


def _concave_f(rng):
    pick = int(rng.integers(3))
    if pick == 0:
        return power_fn(0.5)
    if pick == 1:
        return log_fn()
    return q_log_fn(float(rng.uniform(0.0, 2.0)))


# The member draw of each family kind, as draw(rng, n, spectrum_range).
_MEMBER_DRAWS = {
    "expansive": lambda rng, n, _: gen._draw_expansive(rng, n),
    "contractive": lambda rng, n, _: gen._draw_contractive_pd(rng, n),
    "unconstrained": gen._draw_pd,
}
_SQRT = power_fn(0.5)
_SHANNON_POWER = power_fn(0.5, offset=-1.0)  # sqrt pinned to f(1) = 0


def _family_draw(rng, config: TrialConfig, a_kind: str = "unconstrained"):
    """m, n, then m members of a_kind (the A family) and m unconstrained PD members (B).

    Returns the n, m, params and gaussians fields of the trial's _Draw.
    """
    m = _size(rng, config.m)
    n = _size(rng, config.n)
    draw_a = _MEMBER_DRAWS[a_kind]
    draws = [draw_a(rng, n, config.spectrum_range) for _ in range(m)]
    draws += [gen._draw_pd(rng, n, config.spectrum_range) for _ in range(m)]
    params, gaussians = zip(*draws)
    return n, m, params, gaussians


def _family_stacks(group: list[_Draw], a_kind: str = "unconstrained"):
    """Stacks (T, m, n, n) of the A and B families of family draws sharing (n, m)."""
    m = group[0].m
    params = [d.params for d in group]
    G = np.array([d.gaussians for d in group])
    if a_kind == "expansive":
        As = gen._build_expansive(np.array([p[:m] for p in params]), G[:, :m])
        return As, gen._build(np.array([p[m:] for p in params]), gen._unitaries(G[:, m:]))
    mats = gen._build(np.array(params), gen._unitaries(G))
    return mats[:, :m], mats[:, m:]


def _sum_draw(trial_seed: int, config: TrialConfig) -> _Draw:
    """An A family of config.family_kind, an unconstrained B family, then f."""
    rng = np.random.default_rng(trial_seed)
    return _Draw(*_family_draw(rng, config, config.family_kind), _concave_f(rng))


def _sum_residuals(group: list[_Draw], config: TrialConfig, solver: str = "eigh") -> np.ndarray:
    As, Bs = _family_stacks(group, config.family_kind)
    return _perspective_sums(
        [d.f for d in group],
        As,
        Bs,
        config.lhs_form,
        config.family_kind == "expansive",
        config.tolerance,
        solver,
    )


def _jensen_draw(trial_seed: int, config: TrialConfig) -> _Draw:
    """rand_contraction's Gaussian and singular values, then rand_psd's Gaussian."""
    rng = np.random.default_rng(trial_seed)
    n = _size(rng, config.n)
    g_c = gen._complex_gaussian(rng, n)
    s = rng.random(n)
    return _Draw(n, 1, (s,), (g_c, gen._complex_gaussian(rng, n)))


def _jensen_residuals(group: list[_Draw], config: TrialConfig) -> np.ndarray:
    G = np.array([d.gaussians for d in group])
    C = gen._build_contraction(np.array([d.params[0] for d in group]), G[:, 0])
    return _operator_jensen(_SQRT, C, gen._build_psd(2.0, G[:, 1]))


def _shannon_draw(trial_seed: int, config: TrialConfig) -> _Draw:
    """An expansive A family, the shares of rand_split_matching, then f with f(1) = 0."""
    rng = np.random.default_rng(trial_seed)
    n, m, params, gaussians = _family_draw(rng, config, "expansive")
    f = _concave_f(rng)
    return _Draw(n, m, params, gaussians, _SHANNON_POWER if f.family == "power" else f)


def _shannon_residuals(group: list[_Draw], config: TrialConfig) -> np.ndarray:
    As, shares = _family_stacks(group, "expansive")
    Bs = gen._split_matching(_total(As), shares)
    return _operator_shannon([d.f for d in group], As, Bs, config.tolerance)


def _pooled_inverse_draw(trial_seed: int, config: TrialConfig) -> _Draw:
    """m, n, m rand_pd members A_i, then m rand_square members X_i."""
    rng = np.random.default_rng(trial_seed)
    m = _size(rng, config.m)
    n = _size(rng, config.n)
    spectra, gaussians = zip(*(gen._draw_pd(rng, n, config.spectrum_range) for _ in range(m)))
    squares = tuple(gen._complex_gaussian(rng, n) for _ in range(m))
    return _Draw(n, m, spectra, gaussians + squares)


def _pooled_inverse_residuals(group: list[_Draw], config: TrialConfig) -> np.ndarray:
    m = group[0].m
    G = np.array([d.gaussians for d in group])
    As = gen._build(np.array([d.params for d in group]), gen._unitaries(G[:, :m]))
    return _pooled_inverse(G[:, m:], As)


def _mean_draw(trial_seed: int, config: TrialConfig) -> _Draw:
    return _Draw(*_family_draw(np.random.default_rng(trial_seed), config))


def _pooled_mean_residuals(group: list[_Draw], config: TrialConfig) -> np.ndarray:
    return _pooled_mean(_SQRT, *_family_stacks(group))


def _split_mean_residuals(group: list[_Draw], config: TrialConfig) -> np.ndarray:
    return _split_mean(_SQRT, *_family_stacks(group))


def _monotonicity_draw(trial_seed: int, config: TrialConfig) -> _Draw:
    """A_part, B_part, the scale and Gaussian of the PSD step to A_whole, B_whole's PD step."""
    rng = np.random.default_rng(trial_seed)
    n = _size(rng, config.n)
    a_part, g_a = gen._draw_pd(rng, n, config.spectrum_range)
    b_part, g_b = gen._draw_pd(rng, n, config.spectrum_range)
    scale = rng.uniform(0.1, 1.0)
    g_psd = gen._complex_gaussian(rng, n)
    b_step, g_step = gen._draw_pd(rng, n, (0.05, 0.5))
    return _Draw(n, 1, (a_part, b_part, scale, b_step), (g_a, g_b, g_psd, g_step))


def _monotonicity_residuals(group: list[_Draw], config: TrialConfig) -> np.ndarray:
    G = np.array([d.gaussians for d in group])
    pd = [0, 1, 3]  # A_part, B_part, B_whole - B_part
    spectra = np.array([[d.params[k] for k in pd] for d in group])
    mats = gen._build(spectra, gen._unitaries(G[:, pd]))
    A_part, B_part = mats[:, 0], mats[:, 1]
    A_step = gen._build_psd(np.array([d.params[2] for d in group]), G[:, 2])
    return _mean_monotonicity(
        _SQRT, A_part, B_part, A_part + A_step, B_part + mats[:, 2], config.tolerance
    )


def _grouped(draws: list[_Draw], residuals):
    """(positions in draws, residuals(group)) of each group of draws sharing (n, m)."""
    groups: dict[tuple[int, int], list[int]] = {}
    for k, d in enumerate(draws):
        groups.setdefault((d.n, d.m), []).append(k)
    for ks in groups.values():
        yield ks, residuals([draws[k] for k in ks])


def _verdicts(draws: list[_Draw], config: TrialConfig, residuals):
    """Residual minimum eigenvalue and holds flag of each trial, as Python lists.

    residuals(group, config) gives the residual eigenvalues (T, n) of a group.
    """
    min_eig, holds = np.empty(len(draws)), np.empty(len(draws), dtype=bool)
    for ks, w in _grouped(draws, lambda group: residuals(group, config)):
        verdict = _verdict(w, config.tolerance)
        min_eig[ks] = verdict.residual_min_eigenvalue
        holds[ks] = verdict.holds
    return min_eig.tolist(), holds.tolist()


class _Stacked:
    """The block evaluator of a suite given as a draw and a stacked kernel.

    draw(trial_seed, config) makes a trial's rng draws in the order of the
    one-trial generators; residuals(group, config) builds the stacks of a
    group of draws sharing (n, m) and returns its kernel's residual
    eigenvalues (T, n).
    """

    def __init__(self, draw, residuals):
        self.draw = draw
        self.residuals = residuals

    def __call__(self, seeds, config):
        return _verdicts([self.draw(ts, config) for ts in seeds], config, self.residuals)


_perspective_sum_verdicts = _Stacked(_sum_draw, _sum_residuals)


def _per_trial(suite_fn):
    """The block evaluator of a suite_fn(rng, config) -> (gap, holds) of one trial."""
    return lambda seeds, config: zip(*(suite_fn(np.random.default_rng(s), config) for s in seeds))


SUITES = {
    "scalar_log_sum": _per_trial(_suite_scalar_log_sum),
    "scalar_equality": _per_trial(_suite_scalar_equality),
    "scalar_reverse": _per_trial(_suite_scalar_reverse),
    "rational_reverse": _per_trial(_suite_rational_reverse),
    "q_log_sum": _per_trial(_suite_q_log_sum),
    "q_direction": _per_trial(_suite_q_direction),
    "ratio_bounds": _per_trial(_suite_ratio_bounds),
    "convexity_check": _per_trial(_suite_convexity_check),
    "trace_log_sum": _per_trial(_suite_trace_log_sum),
    "trace_reverse": _per_trial(_suite_trace_reverse),
    "q_trace": _per_trial(_suite_q_trace),
    "exp_log_trace": _per_trial(_suite_exp_log_trace),
    "relative_entropy": _per_trial(_suite_relative_entropy),
    "entropy_bound": _per_trial(_suite_entropy_bound),
    "operator_jensen": _Stacked(_jensen_draw, _jensen_residuals),
    "perspective_sum": _perspective_sum_verdicts,
    "operator_shannon": _Stacked(_shannon_draw, _shannon_residuals),
    "pooled_inverse": _Stacked(_pooled_inverse_draw, _pooled_inverse_residuals),
    "pooled_mean": _Stacked(_mean_draw, _pooled_mean_residuals),
    "split_mean": _Stacked(_mean_draw, _split_mean_residuals),
    "mean_monotonicity": _Stacked(_monotonicity_draw, _monotonicity_residuals),
}


def _block(config: TrialConfig) -> int:
    return max(1, min(_BLOCK, _BLOCK_BYTES // (16 * (config.m + 1) * config.n**2)))


def _run(config: TrialConfig, evaluate):
    """Walk the trial seeds in blocks of _block(config); evaluate(seeds, config) -> (gaps, holds).

    Returns the worst gap (the first on ties), its trial seed, and the
    (index, seed, gap) of each failing trial, in trial order.
    """
    worst_gap, worst_seed, failures = math.inf, _trial_seed(config, 0), []
    block = _block(config)
    for first in range(0, config.trials, block):
        indices = range(first, min(first + block, config.trials))
        seeds = [_trial_seed(config, index) for index in indices]
        gaps, holds = evaluate(seeds, config)
        for index, ts, gap, ok in zip(indices, seeds, gaps, holds):
            if gap < worst_gap:
                worst_gap, worst_seed = gap, ts
            if not ok:
                failures.append((index, ts, gap))
    return float(worst_gap), worst_seed, failures


def run_suite(config: TrialConfig) -> SuiteReport:
    """Execute config.trials seeded trials of one registered suite."""
    if config.suite not in SUITES:
        raise DomainError(
            f"unknown suite {config.suite!r}; registered: {', '.join(sorted(SUITES))}"
        )
    start = time.perf_counter()
    worst_gap, worst_seed, failures = _run(config, SUITES[config.suite])
    return SuiteReport(
        suite=config.suite,
        config=config,
        trials=config.trials,
        violations=len(failures),
        worst_gap=worst_gap,
        worst_case_seed=worst_seed,
        wall_time=time.perf_counter() - start,
    )


def counterexample_search(config: TrialConfig) -> SuiteReport:
    """Probe the perspective-sum inequality on contractive families.

    The expansivity hypothesis is deliberately dropped; whether the
    inequality can fail without it is an open question, so the report
    carries findings (re-verified candidates) and no pass/fail claim.
    """
    if config.suite != "perspective_sum":
        raise DomainError("counterexample_search requires suite='perspective_sum'")
    if config.family_kind != "contractive":
        raise DomainError("counterexample_search requires family_kind='contractive'")
    start = time.perf_counter()
    findings, candidates = [], []  # candidates: (index, seed, first residual, draw)
    block = _block(config)

    def confirm(chunk):
        """Re-verify a chunk of candidates through the Jacobi solver, one stack per group."""
        rechecks = np.empty(len(chunk))
        draws = [draw for *_, draw in chunk]
        for ks, w in _grouped(draws, lambda group: _sum_residuals(group, config, "jacobi")):
            rechecks[ks] = w.min(axis=-1)
        for (index, ts, min_eig, draw), recheck in zip(chunk, rechecks.tolist()):
            if recheck < -RECHECK_ABS_TOL:
                findings.append(
                    {
                        "trial_index": index,
                        "seed": ts,
                        "n": draw.n,
                        "m": draw.m,
                        "f": draw.f.label(),
                        "lhs_form": config.lhs_form,
                        "first_min_eigenvalue": min_eig,
                        "recheck_min_eigenvalue": recheck,
                    }
                )

    def first_pass(seeds, config):
        """The block's verdicts; its failing trials join the candidates with their draws."""
        draws = [_sum_draw(ts, config) for ts in seeds]
        min_eigs, holds = _verdicts(draws, config, _sum_residuals)
        for ts, draw, min_eig, ok in zip(seeds, draws, min_eigs, holds):
            if not ok:
                candidates.append(((ts - config.seed) % _SEED_MOD, ts, min_eig, draw))
        while len(candidates) >= block:
            confirm(candidates[:block])
            del candidates[:block]
        return min_eigs, holds

    worst_gap, worst_seed, _ = _run(config, first_pass)
    if candidates:
        confirm(candidates)
    return SuiteReport(
        suite="contractive_search",
        config=config,
        trials=config.trials,
        violations=len(findings),
        worst_gap=worst_gap,
        worst_case_seed=worst_seed,
        wall_time=time.perf_counter() - start,
        findings=tuple(findings),
    )


def report_to_json(report: SuiteReport) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"
