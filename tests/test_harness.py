"""Randomized suite runner: determinism, replay, search report hygiene."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from logsumineq import generators as gen
from logsumineq import harness, loewner, matfun, traceform
from logsumineq.errors import DomainError, NumericError
from logsumineq.functions import identity_fn, log_fn, power_fn, q_log_fn, rational_fn
from logsumineq.harness import (
    SUITES,
    SuiteReport,
    TrialConfig,
    counterexample_search,
    report_to_json,
    run_suite,
)
from logsumineq.loewner import (
    mean_monotonicity_residual,
    operator_jensen_residual,
    operator_shannon_residual,
    perspective_sum_residual,
    pooled_inverse_residual,
    pooled_mean_residual,
    split_mean_residual,
)
from logsumineq.scalar import (
    SequencePair,
    convexity_check,
    generalized_log_sum_gap,
    q_log_sum_gap,
    ratio_bounds,
    rational_example_gap,
    reverse_log_sum_gap,
)
from logsumineq.traceform import (
    exp_log_trace_gap,
    q_trace_gap,
    quantum_relative_entropy,
    reverse_trace_gap,
    trace_log_sum_gap,
    von_neumann_entropy,
)

FAST = dict(trials=60, seed=123, n=3, m=2)


def test_config_validation():
    with pytest.raises(DomainError):
        TrialConfig(suite="scalar_log_sum", trials=0)
    with pytest.raises(DomainError):
        TrialConfig(suite="scalar_log_sum", n=0)
    with pytest.raises(DomainError):
        TrialConfig(suite="scalar_log_sum", n=65)
    with pytest.raises(DomainError):
        TrialConfig(suite="scalar_log_sum", m=17)
    with pytest.raises(DomainError):
        TrialConfig(suite="scalar_log_sum", tolerance=0.0)
    with pytest.raises(DomainError):
        TrialConfig(suite="scalar_log_sum", spectrum_range=(2.0, 1.0))
    with pytest.raises(DomainError):
        TrialConfig(suite="scalar_log_sum", family_kind="shrinking")
    with pytest.raises(DomainError):
        TrialConfig(suite="scalar_log_sum", lhs_form="other")
    # counts take any integral value that is not a bool, stored as a plain int
    for field, value in [
        ("trials", 2.5),
        ("trials", True),
        ("trials", "10"),
        ("seed", 5.0),
        ("seed", None),
        ("n", 3.7),
        ("n", np.float64(3.0)),
        ("m", False),
        ("m", np.bool_(True)),
    ]:
        with pytest.raises(DomainError, match=f"^{field} must be an integer"):
            TrialConfig(suite="scalar_log_sum", **{field: value})
    cfg = TrialConfig(
        suite="scalar_log_sum", trials=np.int32(3), seed=np.int64(5), n=np.uint8(3), m=np.int16(2)
    )
    assert [type(v) for v in (cfg.trials, cfg.seed, cfg.n, cfg.m)] == [int] * 4
    assert json.loads(report_to_json(run_suite(cfg)))["config"]["seed"] == 5


def test_unknown_suite_lists_registry():
    with pytest.raises(DomainError) as err:
        run_suite(TrialConfig(suite="nonexistent"))
    assert "scalar_log_sum" in str(err.value)


def test_every_registered_suite_runs_clean():
    for name in sorted(SUITES):
        rep = run_suite(TrialConfig(suite=name, trials=25, seed=7, n=3, m=2))
        assert isinstance(rep, SuiteReport)
        assert rep.trials == 25
        assert rep.violations == 0, f"{name}: {rep.violations} violations, worst {rep.worst_gap}"


def test_determinism_same_seed_same_report():
    cfg = TrialConfig(suite="trace_log_sum", **FAST)
    r1 = run_suite(cfg)
    r2 = run_suite(cfg)
    assert r1.worst_gap == r2.worst_gap
    assert r1.worst_case_seed == r2.worst_case_seed
    assert r1.violations == r2.violations


def test_different_seed_changes_worst_case():
    # trial seeds are seed+index, so disjoint base seeds give disjoint streams
    r1 = run_suite(TrialConfig(suite="q_log_sum", trials=200, seed=0, n=4))
    r2 = run_suite(TrialConfig(suite="q_log_sum", trials=200, seed=10**6, n=4))
    assert r1.worst_gap != r2.worst_gap


def test_worst_case_seed_replays_exactly():
    suites = ("scalar_log_sum", "q_log_sum", "q_direction", "q_trace", "exp_log_trace")
    for suite in suites + ("perspective_sum", "pooled_mean", "split_mean"):
        rep = run_suite(TrialConfig(suite=suite, trials=150, seed=31, n=3, m=2))
        replay = run_suite(TrialConfig(suite=suite, trials=1, seed=rep.worst_case_seed, n=3, m=2))
        assert replay.worst_gap == rep.worst_gap, suite


def test_trial_seed_wraps_at_64_bits():
    # seeds near 2^64 must wrap instead of overflowing
    cfg = TrialConfig(suite="scalar_log_sum", trials=4, seed=2**64 - 2, n=3)
    rep = run_suite(cfg)
    assert rep.trials == 4


def test_q_trace_cross_check_seed_5249(monkeypatch):
    # This trial's ill-conditioned B^r puts the product path just outside the
    # flat cross-check bound; the 50-digit referee sides with the joint spectrum.
    refereed = []
    real = traceform._referee

    def spy(*dispute):
        refereed.append(real(*dispute))
        return refereed[-1]

    monkeypatch.setattr(traceform, "_referee", spy)
    rep = run_suite(TrialConfig(suite="q_trace", trials=1, seed=5249, n=8))
    assert rep.violations == 0
    assert len(refereed) == 1
    assert refereed[0] == pytest.approx(-7788.825252730261, rel=1e-15)


def test_q_trace_disagreement_with_the_referee_still_raises(monkeypatch):
    # a referee that sides with neither value leaves the dispute standing
    monkeypatch.setattr(traceform, "_referee", lambda *dispute: -15.0)
    with pytest.raises(NumericError) as err:
        run_suite(TrialConfig(suite="q_trace", trials=1, seed=5249, n=8))
    message = str(err.value)
    assert message.startswith("q_trace_gap: matrix-product path -7788.8253284")
    assert "joint-spectrum value -7788.82525273013" in message
    assert message.endswith("50-digit product path gives -15.0")


def test_report_json_is_canonical():
    rep = run_suite(TrialConfig(suite="scalar_log_sum", **FAST))
    text = report_to_json(rep)
    doc = json.loads(text)
    assert doc["suite"] == "scalar_log_sum"
    assert doc["trials"] == 60
    assert set(doc) == {
        "suite",
        "config",
        "trials",
        "violations",
        "worst_gap",
        "worst_case_seed",
        "findings",
        "wall_time",
    }
    # canonical ordering: re-serialization is byte-identical
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text


def test_reports_identical_modulo_wall_time():
    cfg = TrialConfig(suite="entropy_bound", **FAST)
    d1 = json.loads(report_to_json(run_suite(cfg)))
    d2 = json.loads(report_to_json(run_suite(cfg)))
    d1.pop("wall_time")
    d2.pop("wall_time")
    assert d1 == d2


# -- counterexample search -----------------------------------------------------


def test_search_requires_contractive_kind():
    with pytest.raises(DomainError):
        counterexample_search(
            TrialConfig(suite="perspective_sum", trials=10, family_kind="expansive")
        )
    with pytest.raises(DomainError, match="suite='perspective_sum'"):
        counterexample_search(
            TrialConfig(suite="scalar_log_sum", trials=10, family_kind="contractive")
        )


def test_search_runs_and_reports():
    cfg = TrialConfig(
        suite="perspective_sum", trials=400, seed=5, n=3, m=2, family_kind="contractive"
    )
    rep = counterexample_search(cfg)
    assert rep.suite == "contractive_search"
    assert rep.trials == 400
    assert rep.violations == len(rep.findings)
    for finding in rep.findings:
        assert set(finding) == {
            "trial_index",
            "seed",
            "n",
            "m",
            "f",
            "lhs_form",
            "first_min_eigenvalue",
            "recheck_min_eigenvalue",
        }


def test_search_deterministic():
    cfg = TrialConfig(
        suite="perspective_sum", trials=300, seed=9, n=3, m=2, family_kind="contractive"
    )
    r1 = counterexample_search(cfg)
    r2 = counterexample_search(cfg)
    assert r1.worst_gap == r2.worst_gap
    assert r1.findings == r2.findings


def test_search_sum_fb_form_finds_log_failures():
    # with the plain-sum lhs the search must surface genuine violations
    cfg = TrialConfig(
        suite="perspective_sum",
        trials=3000,
        seed=2,
        n=3,
        m=2,
        family_kind="contractive",
        lhs_form="sum_fb",
    )
    rep = counterexample_search(cfg)
    assert rep.violations > 0
    worst = min(f["recheck_min_eigenvalue"] for f in rep.findings)
    assert worst < -1e-6


# -- stacked search evaluation -------------------------------------------------


def _search_config(lhs_form, trials, seed=1111):
    return TrialConfig(
        suite="perspective_sum",
        trials=trials,
        seed=seed,
        n=3,
        m=2,
        family_kind="contractive",
        lhs_form=lhs_form,
    )


def _canonical(report):
    doc = json.loads(report_to_json(report))
    doc.pop("wall_time")
    return doc


@pytest.mark.parametrize("lhs_form", ["perspective_sum", "sum_fb"])
def test_stacked_search_residuals_equal_one_trial_runs(monkeypatch, lhs_form):
    recorded = []
    real = harness._verdicts

    def recording(draws, config, residuals):
        min_eigs, holds = real(draws, config, residuals)
        recorded.extend(min_eigs)
        return min_eigs, holds

    monkeypatch.setattr(harness, "_verdicts", recording)
    cfg = _search_config(lhs_form, 2000)
    rep = counterexample_search(cfg)
    monkeypatch.undo()
    assert len(recorded) == 2000
    for index, residual in enumerate(recorded):
        one = counterexample_search(replace(cfg, trials=1, seed=cfg.seed + index))
        assert one.worst_gap == residual, index
    replay = counterexample_search(replace(cfg, trials=1, seed=rep.worst_case_seed))
    assert replay.worst_gap == rep.worst_gap == min(recorded)


@pytest.mark.parametrize("lhs_form", ["perspective_sum", "sum_fb"])
def test_search_report_does_not_depend_on_the_block_size(monkeypatch, lhs_form):
    cfg = _search_config(lhs_form, 300, seed=77)
    default = _canonical(counterexample_search(cfg))
    monkeypatch.setattr(harness, "_BLOCK", 7)
    assert _canonical(counterexample_search(cfg)) == default


def test_search_takes_three_eigensolves_per_group_per_block(eigh_calls):
    cfg = _search_config("perspective_sum", 500)
    groups = 0
    for first in range(0, cfg.trials, harness._BLOCK):
        block = range(first, min(first + harness._BLOCK, cfg.trials))
        draws = harness._perspective_sum_verdicts.draws([cfg.seed + index for index in block], cfg)
        groups += len({(d.n, d.m) for d in draws})
    assert groups <= cfg.n * cfg.m * math.ceil(cfg.trials / harness._BLOCK)
    eigh_calls.clear()
    counterexample_search(cfg)
    # rechecks go through the Jacobi solver, so every eigh call is a stacked one
    assert 0 < len(eigh_calls) <= 3 * groups


def test_search_recheck_takes_three_jacobi_calls_per_group_per_block(monkeypatch):
    cfg = _search_config("sum_fb", 500)
    _, _, failures = harness._run(cfg, harness._perspective_sum_verdicts)
    groups = 0
    for first in range(0, len(failures), harness._BLOCK):
        chunk = failures[first : first + harness._BLOCK]
        draws = harness._perspective_sum_verdicts.draws([ts for _, ts, _ in chunk], cfg)
        groups += len({(d.n, d.m) for d in draws})
    assert failures and groups <= cfg.n * cfg.m * math.ceil(len(failures) / harness._BLOCK)
    jacobi_calls = []
    real = matfun.jacobi_eigh

    def counting(A):
        jacobi_calls.append(A.shape)
        return real(A)

    monkeypatch.setattr(matfun, "jacobi_eigh", counting)
    counterexample_search(cfg)
    # one decomposition of the totals and members, one of the perspective
    # arguments and one of the residuals, each a stack over the group
    assert 0 < len(jacobi_calls) <= 3 * groups


def test_search_recheck_runs_the_jacobi_solver(monkeypatch):
    # the recheck is the one caller that picks a solver other than eigh
    jacobi_calls = []
    real = matfun.jacobi_eigh

    def counting(A):
        jacobi_calls.append(A.shape)
        return real(A)

    monkeypatch.setattr(matfun, "jacobi_eigh", counting)
    cfg = _search_config("sum_fb", 300)
    rep = counterexample_search(cfg)
    assert rep.findings and jacobi_calls
    for finding in rep.findings:
        rng = np.random.default_rng(finding["seed"])
        m = int(rng.integers(1, cfg.m + 1))
        n = int(rng.integers(1, cfg.n + 1))
        As = [gen.rand_contractive_pd(rng, n) for _ in range(m)]
        Bs = [gen.rand_pd(rng, n, cfg.spectrum_range) for _ in range(m)]
        f = harness._concave_f(rng)
        assert (n, m, f.label()) == (finding["n"], finding["m"], finding["f"])
        As, Bs = np.stack(As)[None], np.stack(Bs)[None]
        w = loewner._perspective_sums([f], As, Bs, "sum_fb", False, cfg.tolerance, solver="jacobi")
        assert w[0].min() == finding["recheck_min_eigenvalue"]


@pytest.mark.parametrize("run", [*sorted(SUITES), "search perspective_sum", "search sum_fb"])
def test_each_trial_draws_from_one_rng_of_its_trial_seed(monkeypatch, run):
    # trial i of seed s draws from the stream (s + i) mod 2**64, here across the
    # wrap; the search's recheck reuses the candidates' first-pass draws
    seeds = []
    real = np.random.default_rng

    def recording(seed):
        seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    seed = 2**64 - 3
    if run.startswith("search"):
        cfg = _search_config(run.split()[1], 300, seed=seed)
        rep = counterexample_search(cfg)
        assert bool(rep.findings) == (cfg.lhs_form == "sum_fb")
    else:
        cfg = TrialConfig(suite=run, trials=6, seed=seed, n=3, m=2)
        run_suite(cfg)
    assert seeds == [(seed + index) % 2**64 for index in range(cfg.trials)]


# -- one block loop for every suite --------------------------------------------


def _public_perspective_trial(trial_seed, cfg):
    """One perspective_sum trial rebuilt from its seed through the public functions."""
    rng = np.random.default_rng(trial_seed)
    m = int(rng.integers(1, cfg.m + 1))
    n = int(rng.integers(1, cfg.n + 1))
    member = {
        "expansive": lambda: gen.rand_expansive(rng, n),
        "contractive": lambda: gen.rand_contractive_pd(rng, n),
        "unconstrained": lambda: gen.rand_pd(rng, n, cfg.spectrum_range),
    }[cfg.family_kind]
    As = [member() for _ in range(m)]
    Bs = [gen.rand_pd(rng, n, cfg.spectrum_range) for _ in range(m)]
    f = harness._concave_f(rng)
    expansive = cfg.family_kind == "expansive"
    return perspective_sum_residual(
        f, As, Bs, cfg.lhs_form, require_expansive=expansive, tol=cfg.tolerance
    )


@pytest.mark.parametrize("lhs_form", ["perspective_sum", "sum_fb"])
@pytest.mark.parametrize("family_kind", ["expansive", "contractive", "unconstrained"])
def test_perspective_sum_trials_equal_the_public_residual(monkeypatch, family_kind, lhs_form):
    recorded = []
    real = SUITES["perspective_sum"]

    def recording(seeds, config):
        min_eigs, holds = real(seeds, config)
        recorded.extend(zip(seeds, min_eigs, holds))
        return min_eigs, holds

    monkeypatch.setitem(SUITES, "perspective_sum", recording)
    cfg = TrialConfig(
        suite="perspective_sum",
        trials=200,
        seed=7,
        n=4,
        m=3,
        family_kind=family_kind,
        lhs_form=lhs_form,
    )
    rep = run_suite(cfg)
    assert [ts for ts, _, _ in recorded] == [cfg.seed + index for index in range(cfg.trials)]
    for ts, min_eig, holds in recorded:
        verdict = _public_perspective_trial(ts, cfg)
        assert (verdict.residual_min_eigenvalue, verdict.holds) == (min_eig, holds), ts
    assert rep.violations == sum(not holds for _, _, holds in recorded)
    assert rep.worst_gap == min(min_eig for _, min_eig, _ in recorded)
    assert rep.worst_case_seed == next(ts for ts, g, _ in recorded if g == rep.worst_gap)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_report_does_not_depend_on_the_block_size(monkeypatch, suite):
    cfg = TrialConfig(suite=suite, trials=40, seed=7, n=3, m=2, lhs_form="sum_fb")
    default = _canonical(run_suite(cfg))
    monkeypatch.setattr(harness, "_BLOCK", 7)
    assert _canonical(run_suite(cfg)) == default


def test_block_is_capped_by_bytes():
    for n, m in ((4, 2), (8, 4)):  # the benchmark's sizes keep the full block
        assert harness._block(TrialConfig(suite="perspective_sum", n=n, m=m)) == harness._BLOCK
    big = TrialConfig(suite="perspective_sum", n=64, m=16)
    assert 1 <= harness._block(big) < harness._BLOCK
    assert harness._block(big) * 16 * (big.m + 1) * big.n**2 <= harness._BLOCK_BYTES


@pytest.mark.parametrize("suite", ["perspective_sum", "search"])
def test_report_does_not_depend_on_the_byte_budget(monkeypatch, suite):
    cfg = _search_config("sum_fb", 300, seed=77)
    run = counterexample_search if suite == "search" else run_suite
    default = _canonical(run(cfg))
    monkeypatch.setattr(harness, "_BLOCK_BYTES", 5 * 16 * (cfg.m + 1) * cfg.n**2)
    assert harness._block(cfg) == 5
    assert _canonical(run(cfg)) == default


def test_readme_lists_every_registered_suite():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("Registered suites:", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"`([a-z_]+)`", paragraph) == sorted(SUITES)


# -- the stacked Loewner suites ---------------------------------------------------

LOEWNER_SUITES = [
    "operator_jensen",
    "operator_shannon",
    "pooled_inverse",
    "pooled_mean",
    "split_mean",
    "mean_monotonicity",
]


def _public_loewner_trial(suite, trial_seed, cfg):
    """One Loewner trial rebuilt from its seed through the public functions."""
    rng = np.random.default_rng(trial_seed)
    sqrt, tol = power_fn(0.5), cfg.tolerance
    if suite == "operator_jensen":
        n = int(rng.integers(1, cfg.n + 1))
        C = gen.rand_contraction(rng, n)
        X = gen.rand_psd(rng, n, scale=2.0)
        return operator_jensen_residual(sqrt, C, X, tol)
    if suite == "mean_monotonicity":
        n = int(rng.integers(1, cfg.n + 1))
        A_part = gen.rand_pd(rng, n, cfg.spectrum_range)
        B_part = gen.rand_pd(rng, n, cfg.spectrum_range)
        A_whole = A_part + gen.rand_psd(rng, n, scale=float(rng.uniform(0.1, 1.0)))
        B_whole = B_part + gen.rand_pd(rng, n, (0.05, 0.5))
        return mean_monotonicity_residual(sqrt, A_part, B_part, A_whole, B_whole, tol)
    m = int(rng.integers(1, cfg.m + 1))
    n = int(rng.integers(1, cfg.n + 1))
    if suite == "operator_shannon":
        As = [gen.rand_expansive(rng, n) for _ in range(m)]
        Bs = gen.rand_split_matching(rng, sum(As), m, cfg.spectrum_range)
        f = harness._concave_f(rng)
        if f.family == "power":
            f = power_fn(0.5, offset=-1.0)
        return operator_shannon_residual(As, Bs, f, tol)
    As = [gen.rand_pd(rng, n, cfg.spectrum_range) for _ in range(m)]
    if suite == "pooled_inverse":
        Xs = [gen.rand_square(rng, n) for _ in range(m)]
        return pooled_inverse_residual(Xs, As, tol)
    Bs = [gen.rand_pd(rng, n, cfg.spectrum_range) for _ in range(m)]
    residual = {"pooled_mean": pooled_mean_residual, "split_mean": split_mean_residual}[suite]
    return residual(sqrt, As, Bs, tol)


@pytest.mark.parametrize("suite", LOEWNER_SUITES)
def test_loewner_suite_trials_equal_the_public_residual(monkeypatch, suite):
    recorded = []
    real = SUITES[suite]

    def recording(seeds, config):
        min_eigs, holds = real(seeds, config)
        recorded.extend(zip(seeds, min_eigs, holds))
        return min_eigs, holds

    monkeypatch.setitem(SUITES, suite, recording)
    # split_mean has a violation in these trials on this window, so both verdicts occur
    window = (0.25, 4.0) if suite == "split_mean" else (0.5, 2.0)
    cfg = TrialConfig(suite=suite, trials=200, seed=7, n=4, m=3, spectrum_range=window)
    rep = run_suite(cfg)
    assert [ts for ts, _, _ in recorded] == [cfg.seed + index for index in range(cfg.trials)]
    for ts, min_eig, holds in recorded:
        verdict = _public_loewner_trial(suite, ts, cfg)
        assert (verdict.residual_min_eigenvalue, verdict.holds) == (min_eig, holds), ts
    assert rep.violations == sum(not holds for _, _, holds in recorded)
    assert rep.worst_gap == min(min_eig for _, min_eig, _ in recorded)


# LAPACK calls of each group of a block: eigh (one per kernel step), qr, svd.
_GROUP_CALLS = {
    "operator_jensen": (2, 0, 1),  # [C† X C, X]; residual.  The contractions' svd.
    "operator_shannon": (3, 1, 0),  # [S, A, A_i] for the split matching; perspective; residual
    "pooled_inverse": (2, 1, 0),  # [A_i, A]; residual
    "pooled_mean": (4, 1, 0),  # [B_i, B, A_i, A]; means' arguments; f-sum; residual
    "split_mean": (3, 1, 0),  # [A_i, A, B_i, B]; means' arguments; residual
    "mean_monotonicity": (3, 1, 0),  # order gaps beside the four matrices; means; residual
}


@pytest.mark.parametrize("suite", LOEWNER_SUITES)
def test_loewner_suite_lapack_calls_per_group_per_block(lapack_calls, suite):
    cfg = TrialConfig(suite=suite, trials=300, seed=5, n=3, m=2)
    groups = 0
    for first in range(0, cfg.trials, harness._BLOCK):
        block = [cfg.seed + i for i in range(first, min(first + harness._BLOCK, cfg.trials))]
        groups += len({(d.n, d.m) for d in SUITES[suite].draws(block, cfg)})
    assert groups <= cfg.n * cfg.m * math.ceil(cfg.trials / harness._BLOCK)
    for calls in lapack_calls.values():
        calls.clear()
    run_suite(cfg)
    counts = tuple(len(lapack_calls[name]) for name in ("eigh", "qr", "svd"))
    assert counts == tuple(k * groups for k in _GROUP_CALLS[suite])


# -- the stacked scalar and trace suites ------------------------------------------

COMMUTING_SUITES = [
    "scalar_log_sum",
    "scalar_equality",
    "scalar_reverse",
    "rational_reverse",
    "q_log_sum",
    "q_direction",
    "ratio_bounds",
    "convexity_check",
    "trace_log_sum",
    "trace_reverse",
    "q_trace",
    "exp_log_trace",
    "relative_entropy",
    "entropy_bound",
]


def _public_commuting_trial(suite, trial_seed, cfg):
    """(gap, holds) of one scalar or trace trial rebuilt from its seed by the public functions."""
    rng = np.random.default_rng(trial_seed)
    tol = cfg.tolerance
    if suite == "convexity_check":
        case = int(rng.integers(4))
        if case == 0:
            ok = convexity_check("xfx", log_fn(), (0.05 + 0.1 * rng.random(), 10.0), 101)
        elif case == 1:
            ok = not convexity_check("xfx", q_log_fn(float(rng.uniform(2.05, 4.0))), (0.1, 10.0))
        elif case == 2:
            interval = (float(rng.uniform(0.42, 0.6)), float(rng.uniform(5, 10)))
            ok = convexity_check("xf1overx", rational_fn(), interval, 201)
        else:
            ok = convexity_check("xfx", power_fn(float(rng.uniform(0.2, 2.0))), (0.01, 5.0))
        return (0.0 if ok else -1.0), ok
    n = int(rng.integers(1, cfg.n + 1))
    if suite == "scalar_equality":
        b = gen.rand_sequence(rng, n)
        v = generalized_log_sum_gap(
            log_fn(), identity_fn(), SequencePair(tuple(rng.uniform(0.1, 10.0) * b), tuple(b)), tol
        )
        return -abs(v.gap), abs(v.gap) <= tol * max(1.0, abs(v.lhs), abs(v.rhs))
    if suite == "rational_reverse":
        a = rng.uniform(1.0, 10.0, n)
        v = rational_example_gap(SequencePair(tuple(a), tuple(rng.uniform(0.9, 2.4, n) * a)), tol)
        return v.gap, v.holds
    if suite == "relative_entropy":
        d = quantum_relative_entropy(*gen.rand_density_pair(rng, n))
        return d, d >= -tol
    if suite == "entropy_bound":
        s = von_neumann_entropy(gen.rand_density(rng, n))
        margin = min(s, math.log(n) - s)
        return margin, margin >= -tol
    if suite in ("trace_log_sum", "trace_reverse", "q_trace", "exp_log_trace"):
        A, B = gen.rand_commuting_pair(rng, n, harness._TRACE_SPECTRUM, harness._TRACE_SPECTRUM)
        v = {
            "trace_log_sum": lambda: trace_log_sum_gap(log_fn(), identity_fn(), A, B, tol),
            "trace_reverse": lambda: reverse_trace_gap(log_fn(), identity_fn(), A, B, tol),
            "exp_log_trace": lambda: exp_log_trace_gap(A, B, tol),
            "q_trace": lambda: q_trace_gap(
                A, B, harness._draw_q(rng), float(rng.uniform(0.5, 2.0)), tol
            ),
        }[suite]()
        return v.gap, v.holds
    pair = gen.rand_sequence_pair(rng, n)
    if suite == "q_direction":
        verdicts = [q_log_sum_gap(pair, q, 1.0, tol) for q in (0.0, 0.5, 1.5, 2.5, 3.0)]
        return min(v.gap for v in verdicts), all(v.holds for v in verdicts)
    if suite == "ratio_bounds":
        g = identity_fn() if rng.random() < 0.5 else power_fn(2.0)
        rb = ratio_bounds(g, pair)
        agg = float(np.sum(g(np.asarray(pair.a))) / np.sum(g(np.asarray(pair.b))))
        slack = tol * max(1.0, abs(rb.m_g), abs(rb.M_g))
        holds = rb.m_g <= rb.M_g + slack and rb.m_g - slack <= agg <= rb.M_g + slack
        return min(rb.M_g - rb.m_g, agg - rb.m_g, rb.M_g - agg), holds
    v = {
        "scalar_log_sum": lambda: generalized_log_sum_gap(log_fn(), identity_fn(), pair, tol),
        "scalar_reverse": lambda: reverse_log_sum_gap(log_fn(), identity_fn(), pair, tol),
        "q_log_sum": lambda: q_log_sum_gap(
            pair, harness._draw_q(rng), float(rng.uniform(0.5, 2.0)), tol
        ),
    }[suite]()
    return v.gap, v.holds


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("suite", COMMUTING_SUITES)
def test_commuting_suite_trials_equal_the_public_functions(monkeypatch, suite, n):
    recorded = []
    real = SUITES[suite]

    def recording(seeds, config):
        gaps, holds = real(seeds, config)
        recorded.extend(zip(seeds, gaps, holds))
        return gaps, holds

    monkeypatch.setitem(SUITES, suite, recording)
    cfg = TrialConfig(suite=suite, trials=200, seed=7, n=n)
    rep = run_suite(cfg)
    assert [ts for ts, _, _ in recorded] == [cfg.seed + index for index in range(cfg.trials)]
    for ts, gap, holds in recorded:
        want_gap, want_holds = _public_commuting_trial(suite, ts, cfg)
        # bit for bit, the sign of a zero included
        assert (float(gap).hex(), holds) == (float(want_gap).hex(), bool(want_holds)), ts
    assert rep.violations == sum(not holds for _, _, holds in recorded)
    assert rep.worst_gap == min(gap for _, gap, _ in recorded)


# LAPACK calls of each group of a block: eigh (one per kernel step), qr, svd.
_TRACE_GROUP_CALLS = {
    "trace_log_sum": (3, 1, 0),  # A; the product path's g(B) and product
    "trace_reverse": (3, 1, 0),
    "q_trace": (3, 1, 0),
    "exp_log_trace": (2, 1, 0),  # A; log B
    "relative_entropy": (1, 1, 0),  # rho beside sigma
    "entropy_bound": (1, 1, 0),
}


@pytest.mark.parametrize("suite", sorted(_TRACE_GROUP_CALLS))
def test_trace_suite_lapack_calls_per_group_per_block(lapack_calls, suite):
    cfg = TrialConfig(suite=suite, trials=300, seed=5, n=4)
    groups = 0
    for first in range(0, cfg.trials, harness._BLOCK):
        block = [cfg.seed + i for i in range(first, min(first + harness._BLOCK, cfg.trials))]
        groups += len({d.n for d in SUITES[suite].draws(block, cfg)})
    assert groups <= cfg.n * math.ceil(cfg.trials / harness._BLOCK)
    for calls in lapack_calls.values():
        calls.clear()
    run_suite(cfg)
    counts = tuple(len(lapack_calls[name]) for name in ("eigh", "qr", "svd"))
    assert counts == tuple(k * groups for k in _TRACE_GROUP_CALLS[suite])


def test_default_runs_do_not_import_mpmath():
    # the referee imports mpmath in its own child interpreter, even for a dispute
    script = (
        "import sys\n"
        "import logsumineq\n"
        "from logsumineq.harness import SUITES, TrialConfig, run_suite\n"
        "for suite in SUITES:\n"
        "    run_suite(TrialConfig(suite=suite))\n"
        "run_suite(TrialConfig(suite='q_trace', trials=1, seed=5249, n=8))\n"
        "print('mpmath' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
