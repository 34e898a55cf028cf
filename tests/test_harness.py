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
from logsumineq.errors import (
    DomainError,
    NumericError,
    PreconditionError,
    SupportError,
    _holds,
)
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
    assert harness.LHS_FORMS is loewner.LHS_FORMS  # the choices are written once, in loewner
    with pytest.raises(DomainError, match=r"^seed must be a 64-bit unsigned integer$"):
        TrialConfig(suite="q_log_sum", seed=2**64)
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


def test_config_stores_its_tolerance_and_range_as_floats():
    # a float32 tolerance or an int one is stored as the float the verdicts judge at
    cfg = TrialConfig(suite="scalar_log_sum", trials=3, tolerance=np.float32(1e-6))
    assert type(cfg.tolerance) is float and cfg.tolerance == float(np.float32(1e-6))
    assert json.loads(report_to_json(run_suite(cfg)))["config"]["tolerance"] == cfg.tolerance
    cfg = TrialConfig(suite="scalar_log_sum", tolerance=1, spectrum_range=[np.float32(0.5), 2])
    assert '"tolerance": 1.0' in report_to_json(run_suite(replace(cfg, trials=1)))
    assert cfg.spectrum_range == (0.5, 2.0) and type(cfg.spectrum_range[1]) is float
    # every malformed value is a DomainError
    for field, value in [
        ("suite", ["scalar_log_sum"]),
        ("tolerance", "x"),
        ("tolerance", True),
        ("tolerance", None),
        ("spectrum_range", ("a", 2)),
        ("spectrum_range", (1,)),
        ("spectrum_range", (1, 2, 3)),
        ("spectrum_range", 5),
        ("spectrum_range", (True, 2)),
        ("spectrum_range", (0.5, math.inf)),
    ]:
        with pytest.raises(DomainError, match=f"^{field}"):
            TrialConfig(**{"suite": "scalar_log_sum", field: value})


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
    # a trace suite's refusal names its trial by seed and n, as a Loewner suite's does; the
    # trial is judged padded to its size class 8, so its values are the padded stack's
    assert str(err.value) == (
        "trial seed 5249 (n=5): q_trace_gap: matrix-product path -7788.825288190842 disagrees"
        " with joint-spectrum value -7788.825252730111, and the 50-digit product path gives -15.0"
    )


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

    def recording(draws, seeds, config, suite, *builds):
        min_eigs, holds = real(draws, seeds, config, suite, *builds)
        if suite is harness._perspective_sum_verdicts:  # the first pass, not the confirmation
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


def _evaluated_sizes(draws):
    """The sizes n of the draws a suite judges: the identity draws take none."""
    return {d.n for d in draws if d is not harness._IDENTITY_DRAW}


# the sum_fb call of 50 trials at n=3, m=2 is the search_sum_fb benchmark's call
@pytest.mark.parametrize("lhs_form, trials", [("perspective_sum", 500), ("sum_fb", 50)])
def test_search_takes_three_eigensolves_per_group_per_block(eigh_calls, lhs_form, trials):
    # one stacked eigh per kernel step and size class of a block; at n=3 every size pads to 3
    cfg = _search_config(lhs_form, trials)
    seeds = [cfg.seed + index for index in range(cfg.trials)]
    classes, groups = _classes_and_groups(harness._perspective_sum_verdicts, cfg, seeds)
    assert classes < groups
    eigh_calls.clear()
    counterexample_search(cfg)
    # rechecks go through the Jacobi solver, so every eigh call is a stacked one
    assert len(eigh_calls) == 3 * classes


def _failing_blocks(cfg):
    """The seeds of the failing trials of each block of a search's first pass, in trial order."""
    failing = {ts for _, ts, _ in harness._run(cfg, harness._perspective_sum_verdicts)[2]}
    seeds, block = [cfg.seed + index for index in range(cfg.trials)], harness._block(cfg)
    blocks = [seeds[first : first + block] for first in range(0, cfg.trials, block)]
    return [[ts for ts in trial_seeds if ts in failing] for trial_seeds in blocks]


def _failing_classes_and_groups(cfg, failing):
    """The (size class, n-group) counts of the failing trials, blocks failing, block by block."""
    counts = [_classes_and_groups(harness._perspective_sum_verdicts, cfg, f) for f in failing]
    return tuple(map(sum, zip(*counts)))


@pytest.mark.parametrize("trials", [500, 50])  # 50: the search_sum_fb benchmark's call
def test_search_recheck_takes_one_jacobi_call_per_class_per_block(monkeypatch, trials):
    cfg = _search_config("sum_fb", trials)
    failing = _failing_blocks(cfg)
    classes, groups = _failing_classes_and_groups(cfg, failing)
    assert all(failing) and len(failing) == (2 if trials == 500 else 1)
    assert classes < groups
    jacobi_calls = []
    real = matfun.jacobi_eigh

    def counting(A):
        jacobi_calls.append(A.shape)
        return real(A)

    monkeypatch.setattr(matfun, "jacobi_eigh", counting)
    counterexample_search(cfg)
    # one decomposition of a block's failing residuals per size class, each candidate's
    # residual once, padded to its class
    assert len(jacobi_calls) == classes
    assert [shape[0] for shape in jacobi_calls] == list(map(len, failing))
    assert all(shape[1:] == (3, 3) for shape in jacobi_calls)


@pytest.mark.parametrize(
    "entry, config",
    [
        (run_suite, TrialConfig(suite="operator_jensen", trials=20, seed=5, n=3)),
        (counterexample_search, _search_config("sum_fb", 20)),
    ],
)
def test_a_refused_trial_is_named_by_its_seed(monkeypatch, entry, config):
    # every padded matrix gets its eigenvectors mixed across its pad: the run's refusal names
    # the first padded trial in trial order by its seed, and a one-trial run of it replays it
    real = np.linalg.eigh
    mixing = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]

    def crossing(H):
        w, U = real(H)
        padded = ~H[..., -1, :-1].any(axis=-1)  # a last row off the diagonal of zeros
        U[padded] = U[padded] @ mixing
        return w, U

    monkeypatch.setattr(np.linalg, "eigh", crossing)
    seeds = [harness._trial_seed(config, index) for index in range(config.trials)]
    draws = harness.SUITES[config.suite].draws(seeds, config)
    first = next((ts, d.n) for ts, d in zip(seeds, draws) if d.n < 3)
    with pytest.raises(NumericError) as run:
        entry(config)
    assert str(run.value).startswith("trial seed {} (n={}): eigenvector ".format(*first))
    assert "stacked matrix" in str(run.value.__cause__)
    with pytest.raises(NumericError) as replay:
        entry(replace(config, trials=1, seed=first[0]))
    assert str(replay.value) == str(run.value)


@pytest.mark.parametrize(
    "module, name, value, suite, seed, refusal, message",
    [
        # a round-off mismatch of the split-matched totals
        (loewner, "SUM_MATCH_RTOL", 0.0, "operator_shannon", 24, PreconditionError, "sum(A_i) "),
        # sigma's least eigenvalues below a raised support floor where rho's are above it
        (traceform, "SUPPORT_ATOL", 0.05, "relative_entropy", 3, SupportError, "rho has weight "),
    ],
)
def test_a_refused_hypothesis_is_named_by_its_seed(
    monkeypatch, module, name, value, suite, seed, refusal, message
):
    # a kernel's PreconditionError or DomainError on generated input is routed like a
    # NumericError: it keeps its type, names the first refused trial by its seed, the trials
    # before it hold, and a one-trial run of it replays the refusal
    monkeypatch.setattr(module, name, value)
    config = TrialConfig(suite=suite, trials=200, seed=seed, n=3, m=3)
    with pytest.raises(refusal) as run:
        run_suite(config)
    assert type(run.value) is refusal
    prefix = re.match(r"trial seed (\d+) \(n=\d\): ", str(run.value))
    assert prefix and str(run.value)[prefix.end() :].startswith(message)
    first = int(prefix[1])
    assert first > seed
    run_suite(replace(config, trials=first - seed))
    with pytest.raises(refusal) as replay:
        run_suite(replace(config, trials=1, seed=first))
    assert str(replay.value) == str(run.value)


def _own_residual(cfg, n, m, As, Bs, f):
    """The sum_fb residual of one trial of the public generators' members As, Bs, formed padded
    to its size class as its one-trial search forms it, and cut to its own size."""
    N = harness._size_class(n, cfg)
    padded = harness._pad([np.stack(As), np.stack(Bs)], N)
    R = loewner._perspective_sums([f], *padded, [m], "sum_fb", False, cfg.tolerance, np.array([n]))
    return R[0, :n, :n]


def test_search_recheck_runs_the_jacobi_solver(monkeypatch):
    # the recheck is the one eigensolve that runs the Jacobi solver: a finding's recheck is
    # jacobi_eigh's least eigenvalue of its trial's one-trial residual, bit for bit, and at
    # round-off from the first pass's eigh (at least one finding differs from it)
    jacobi_calls = []
    real = matfun.jacobi_eigh

    def counting(A):
        jacobi_calls.append(A.shape)
        return real(A)

    monkeypatch.setattr(matfun, "jacobi_eigh", counting)
    cfg = _search_config("sum_fb", 300)
    rep = counterexample_search(cfg)
    assert rep.findings and jacobi_calls
    monkeypatch.undo()
    for finding in rep.findings:
        rng = np.random.default_rng(finding["seed"])
        m = int(rng.integers(1, cfg.m + 1))
        n = int(rng.integers(1, cfg.n + 1))
        As = [gen.rand_contractive_pd(rng, n) for _ in range(m)]
        Bs = [gen.rand_pd(rng, n, cfg.spectrum_range) for _ in range(m)]
        f = harness._concave_f(rng)
        assert (n, m, f.label()) == (finding["n"], finding["m"], finding["f"])
        R = _own_residual(cfg, n, m, As, Bs, f)
        N = harness._size_class(n, cfg)
        padded = np.eye(N, dtype=complex)
        padded[:n, :n] = R
        w, V = matfun.jacobi_eigh(padded)
        own = ~abs(V[n:]).any(axis=0)  # the eigenvectors on the own rows
        assert w[own].min() == finding["recheck_min_eigenvalue"]
        first = finding["first_min_eigenvalue"]
        bound = _PAD_MOVE_K * N * np.finfo(float).eps * max(1.0, abs(w).max())
        assert abs(first - finding["recheck_min_eigenvalue"]) <= bound
    assert any(f["recheck_min_eigenvalue"] != f["first_min_eigenvalue"] for f in rep.findings)


def test_the_confirmation_decomposes_the_first_pass_residuals_without_forming_them(monkeypatch):
    # the candidates are confirmed from their first-pass residuals: outside the first pass's
    # judging, the search runs no qr, no build, no kernel and no eigh, and takes one Jacobi
    # stack per size class of each block's failing trials
    cfg = _search_config("sum_fb", 300)
    stacked = harness._perspective_sum_verdicts
    classes, _ = _failing_classes_and_groups(cfg, _failing_blocks(cfg))
    assert classes == 2  # two blocks, each with candidates of one size class
    names = ("qr", "eigh", "_families", "_sum_build", "_perspective_sums", "jacobi_eigh")
    judging, calls = [False], dict.fromkeys(names, 0)

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += not judging[0]
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in [
        (np.linalg, "qr"),
        (np.linalg, "eigh"),
        (harness, "_families"),
        (harness, "_sum_build"),
        (harness, "_perspective_sums"),
        (matfun, "jacobi_eigh"),
    ]:
        counting(module, name)
    real = harness._verdicts

    def verdicts(draws, seeds, config, suite, *residuals):
        judging[0] = suite is stacked
        try:
            return real(draws, seeds, config, suite, *residuals)
        finally:
            judging[0] = False

    monkeypatch.setattr(harness, "_verdicts", verdicts)
    assert counterexample_search(cfg).findings
    assert calls == {**dict.fromkeys(names, 0), "jacobi_eigh": classes}


def test_a_kept_candidate_shares_no_memory_with_its_blocks_stacks(monkeypatch):
    # each block's confirmation judges exactly that block's failing trials, in trial order,
    # each as its own n x n block of its class's residual stack; the Jacobi solver decomposes
    # copies of those blocks, no stack a block formed, so no candidate outlives its block
    calls, stacks, solved = [], [], []
    real, real_jacobi = harness._verdicts, matfun.jacobi_eigh

    def recording(draws, seeds, config, suite, *residuals):
        gaps, holds = real(draws, seeds, config, suite, *residuals)
        if suite is harness._rechecks:
            calls.append((list(seeds), draws))
        else:
            (kept,) = residuals
            failing = [ts for ts, ok in zip(seeds, holds) if not ok]
            calls.append((failing, {seeds[k]: R[t] for ks, R in kept for t, k in enumerate(ks)}))
            stacks.extend(R for _, R in kept)
        return gaps, holds

    def solving(H):
        solved.append(H)
        return real_jacobi(H)

    monkeypatch.setattr(harness, "_verdicts", recording)
    monkeypatch.setattr(matfun, "jacobi_eigh", solving)
    cfg = _search_config("sum_fb", 300)
    assert counterexample_search(cfg).findings
    assert len(calls) == 4  # two blocks, each judged, then confirmed
    cut = []
    for (failing, residuals), (seeds, kept) in zip(calls[0::2], calls[1::2]):
        assert failing and seeds == failing
        for ts, draw in zip(seeds, kept):
            (R,) = draw.values
            assert R.shape == (draw.n, draw.n)
            assert (R == residuals[ts][: draw.n, : draw.n]).all()
            cut.append(draw.n < residuals[ts].shape[-1])
    assert any(cut)  # some candidates are cut from a padded row
    assert solved and not any(np.shares_memory(H, R) for H in solved for R in stacks)


def test_a_refused_recheck_is_named_by_its_seed(monkeypatch):
    # the Jacobi twin of test_a_refused_trial_is_named_by_its_seed: the confirmation's solver
    # mixes every padded matrix's eigenvectors across its pad, the search's refusal names the
    # first padded candidate by its seed, and a one-trial search of it replays the refusal
    real = matfun.jacobi_eigh
    mixing = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]

    def crossing(H):
        w, U = real(H)
        padded = ~H[..., -1, :-1].any(axis=-1)  # a last row off the diagonal of zeros
        U[padded] = U[padded] @ mixing
        return w, U

    monkeypatch.setattr(matfun, "jacobi_eigh", crossing)
    config = _search_config("sum_fb", 60, seed=1101)
    candidates = [ts for _, ts, _ in harness._run(config, harness._perspective_sum_verdicts)[2]]
    draws = harness._perspective_sum_verdicts.draws(candidates, config)
    first = next((ts, d.n) for ts, d in zip(candidates, draws) if d.n < 3)
    assert first[0] != candidates[0]  # a full-size candidate comes first and is not refused
    with pytest.raises(NumericError) as run:
        counterexample_search(config)
    assert str(run.value).startswith("trial seed {} (n={}): eigenvector ".format(*first))
    assert "stacked matrix" in str(run.value.__cause__)
    with pytest.raises(NumericError) as replay:
        counterexample_search(replace(config, trials=1, seed=first[0]))
    assert str(replay.value) == str(run.value)


@pytest.mark.parametrize("trials, n", [(2000, 3), (300, 10)])  # n=10: above the pad cap
def test_each_finding_is_rechecked_as_its_trial_judged_alone(trials, n):
    # across blocks and above the pad cap, each finding's recheck is its trial drawn, built and
    # judged alone through the Jacobi solver, bit for bit
    cfg = replace(_search_config("sum_fb", trials), n=n)
    if n == 3:
        assert sum(map(bool, _failing_blocks(cfg))) >= 3  # at least 3 blocks with candidates
    rep = counterexample_search(cfg)
    assert rep.findings
    recheck = replace(cfg, tolerance=harness.RECHECK_ABS_TOL)
    for finding in rep.findings:
        _, alone = _judged_alone(harness._rechecks, recheck, finding["seed"])
        assert alone == finding["recheck_min_eigenvalue"], finding["seed"]


def test_the_first_refused_trial_of_a_block_is_found_by_bisection(monkeypatch):
    # a judge that refuses exactly the stacks holding one late trial of a 256-trial block:
    # the refusal keeps its type, names that trial by its seed and replays alone, after at
    # most ceil(log2 T) prefix judges and one judge of the trial alone
    config = TrialConfig(suite="operator_jensen", trials=256, seed=5, n=3)
    assert harness._block(config) == 256
    stacked = SUITES["operator_jensen"]
    chosen = config.seed + 200
    draw = stacked.draws([chosen], config)[0]
    N = harness._size_class(draw.n, config)
    C = harness._pad(stacked.build(config, *harness._stacks([draw])), N)[0]
    judges = []

    def judge(config, size, *built):
        judges.append(len(size))
        if (built[0] == C).all(axis=(-2, -1)).any():
            raise PreconditionError("the chosen trial refused")
        return stacked.judge(config, size, *built)

    monkeypatch.setitem(SUITES, "operator_jensen", stacked._replace(judge=judge))
    with pytest.raises(PreconditionError) as run:
        run_suite(config)
    assert type(run.value) is PreconditionError
    assert str(run.value) == f"trial seed {chosen} (n={draw.n}): the chosen trial refused"
    assert judges[0] == 256 and len(judges) - 1 <= math.ceil(math.log2(256)) + 1
    assert judges[-1] == 1
    with pytest.raises(PreconditionError) as replay:
        run_suite(replace(config, trials=1, seed=chosen))
    assert str(replay.value) == str(run.value)


@pytest.mark.parametrize("run", [*sorted(SUITES), "search perspective_sum", "search sum_fb"])
def test_each_trial_draws_from_one_rng_of_its_trial_seed(monkeypatch, run):
    # trial i of seed s draws from the stream (s + i) mod 2**64, here across the
    # wrap; the search's recheck decomposes the residuals its first pass formed
    seeds = []
    real = harness._rngs

    def recording(block):
        seeds.extend(block)
        return real(block)

    monkeypatch.setattr(harness, "_rngs", recording)
    seed = 2**64 - 3
    if run.startswith("search"):
        cfg = _search_config(run.split()[1], 300, seed=seed)
        rep = counterexample_search(cfg)
        assert bool(rep.findings) == (cfg.lhs_form == "sum_fb")
    else:
        cfg = TrialConfig(suite=run, trials=6, seed=seed, n=3, m=2)
        run_suite(cfg)
    assert seeds == [(seed + index) % 2**64 for index in range(cfg.trials)]


_EDGE_SEEDS = [0, 1, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63, 2**63 + 1]
_EDGE_SEEDS += list(range(2**64 - 5, 2**64))


@pytest.mark.parametrize("one_block", [True, False], ids=["one block", "blocks of 1"])
def test_block_seeding_gives_each_seed_the_stream_of_default_rng(one_block):
    # the guard against numpy changing SeedSequence or PCG64 seeding: a block's
    # streams are default_rng(seed)'s, whatever the block; integers(1, 5) leaves
    # a buffered 32-bit half behind, which the next seed must not inherit
    seeds = _EDGE_SEEDS + np.random.default_rng(2005).integers(0, 2**64, 1000, np.uint64).tolist()
    blocks = [seeds] if one_block else [[s] for s in seeds]

    def draws(rng):
        return [x.tobytes() for x in (rng.integers(1, 5), rng.standard_normal(3), rng.random(2))]

    got = [draws(rng) for b in blocks for rng in harness._rngs(b)]
    assert got == [draws(np.random.default_rng(s)) for s in seeds]


# -- one block loop for every suite --------------------------------------------


def _public_perspective_trial(trial_seed, cfg):
    """One perspective_sum trial rebuilt from its seed through the public functions:
    its instance (As, Bs) and its verdict."""
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
    verdict = perspective_sum_residual(
        f, As, Bs, cfg.lhs_form, require_expansive=expansive, tol=cfg.tolerance
    )
    return (As, Bs), verdict


def _benchmark_calls(cfg):
    """cfg's run, then the operator_suites benchmark's shape: three 20-trial calls at n=8, m=4.

    Their n-groups hold one to a few trials, and 13 of their 23 mix member counts.
    """
    return [cfg, *(replace(cfg, trials=20, seed=42 + 20 * j, n=8, m=4) for j in range(3))]


def _recorded_runs(monkeypatch, cfg):
    """(config, report, the (seed, gap, holds) of each trial) of each of _benchmark_calls(cfg)."""
    recorded = []
    real = SUITES[cfg.suite]

    def recording(seeds, config):
        min_eigs, holds = real(seeds, config)
        recorded.extend(zip(seeds, min_eigs, holds))
        return min_eigs, holds

    monkeypatch.setitem(SUITES, cfg.suite, recording)
    for config in _benchmark_calls(cfg):
        recorded.clear()
        rep = run_suite(config)
        assert [ts for ts, _, _ in recorded] == [config.seed + i for i in range(config.trials)]
        yield config, rep, recorded


def _judged_alone(suite, config, trial_seed):
    """(built instance, gap) of one trial judged alone: built at its own n and padded to its
    size class, as its run pads it; (None, 0.0) for an identity draw."""
    draw = suite.draws([trial_seed], config)[0]
    if draw is harness._IDENTITY_DRAW:
        return None, 0.0
    ((_, (gap, _)),) = harness._grouped([draw], config, suite)
    return suite.build(config, *harness._stacks([draw])), float(np.ravel(gap)[0])


@pytest.mark.parametrize("run", [*sorted(SUITES), "recheck"])
def test_each_trial_built_and_judged_alone_gives_its_run_verdict(monkeypatch, run):
    # every suite is draw -> build -> judge: a trial's build, padded to its size class as
    # its run pads it and judged alone, gives the run's gap and holds flag bit for bit
    recorded = []
    real = harness._verdicts

    def recording(draws, seeds, config, suite, *builds):
        gaps, holds = real(draws, seeds, config, suite, *builds)
        recorded.append((suite, config, seeds, gaps, holds))
        return gaps, holds

    monkeypatch.setattr(harness, "_verdicts", recording)
    if run == "recheck":
        assert counterexample_search(_search_config("sum_fb", 300)).findings
        recorded = [record for record in recorded if record[0] is harness._rechecks]
    else:
        run_suite(TrialConfig(suite=run, trials=60, seed=11, n=3, m=2))
    padded = 0
    for suite, config, seeds, gaps, holds in recorded:
        for ts, gap, ok in zip(seeds, gaps, holds):
            draw = suite.draws([ts], config)[0]
            if draw is harness._IDENTITY_DRAW:
                assert (gap, ok) == (0.0, True)
                continue
            N = harness._size_class(draw.n, config)
            built = suite.build(config, *harness._stacks([draw]))
            padded += draw.n < N
            checks, scale = suite.judge(config, np.array([draw.n]), *harness._pad(built, N))
            least = min(np.ravel(checks).tolist())  # the first least check, as Python takes it
            alone = bool(np.all(_holds(checks, scale, config.tolerance)))
            assert (least.hex(), alone) == (gap.hex(), ok), ts
    # at n=3 every size pads to 3, and convexity_check's grid sizes, above n, pad to none
    assert recorded and (padded > 0) == (run != "convexity_check")


# How far a padded gap may move from the public one-trial residual's, in units of
# N u max(1, ||R||) (u the unit round-off, N the size class).  The largest moves measured
# over the two tests below are 73.5 in operator_jensen (its f(X) = sqrt(X) amplifies
# round-off on X's near-zero eigenvalues) and at most 7.4 in every other suite.
_PAD_MOVE_K = 256


def _assert_close_to_public(gap, verdict, n, config):
    """The run's gap against the public verdict: the same bits for a trial that is not padded,
    else within _PAD_MOVE_K N u max(1, ||R||)."""
    N = harness._size_class(n, config)
    if n == N:
        assert gap == verdict.residual_min_eigenvalue
    bound = _PAD_MOVE_K * N * np.finfo(float).eps * max(1.0, verdict.residual_norm)
    assert abs(gap - verdict.residual_min_eigenvalue) <= bound


def _assert_same_bits(built, public):
    """Each built matrix stack is the stack of the public generators' matrices, bit for bit."""
    matrices = [v for v in built if isinstance(v, np.ndarray) and v.ndim >= 3]
    assert len(matrices) == len(public)
    for stack, members in zip(matrices, public):
        assert stack.tobytes() == np.stack(members).astype(complex).tobytes()


@pytest.mark.parametrize("lhs_form", ["perspective_sum", "sum_fb"])
@pytest.mark.parametrize("family_kind", ["expansive", "contractive", "unconstrained"])
def test_perspective_sum_trials_equal_the_public_residual(monkeypatch, family_kind, lhs_form):
    # the built instance is the public generators', bit for bit; the run's gap is the
    # padded one-trial judge's, bit for bit; against the public residual, which judges
    # the trial unpadded, the verdict is the same and the gap moves at round-off only
    cfg = TrialConfig(
        suite="perspective_sum",
        trials=200,
        seed=7,
        n=4,
        m=3,
        family_kind=family_kind,
        lhs_form=lhs_form,
    )
    stacked = harness._perspective_sum_verdicts
    for config, rep, recorded in _recorded_runs(monkeypatch, cfg):
        for ts, min_eig, holds in recorded:
            instance, verdict = _public_perspective_trial(ts, config)
            built, alone = _judged_alone(stacked, config, ts)
            assert alone == min_eig, ts
            assert verdict.holds == holds, ts
            if built is None:  # an identity trial: the public residual is zero too
                assert verdict.residual_min_eigenvalue == min_eig == 0.0
                continue
            _assert_same_bits(built, instance)
            _assert_close_to_public(min_eig, verdict, len(instance[0][0]), config)
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


def _runs(draws, cfg, suite):
    """The positions of each stack _grouped evaluates for suite, in the order it yields them;
    no build or judge step runs."""
    idle = suite._replace(build=lambda config, *stacks: (), judge=lambda *instance: None)
    return [ks for ks, _ in harness._grouped(draws, cfg, idle)]


def _evaluated(stacked, trials, cfg):
    """The draws of trials 0..trials-1 that a suite judges, and the size class of each."""
    draws = [d for d in stacked.draws(range(trials), cfg) if d is not harness._IDENTITY_DRAW]
    return draws, [harness._size_class(d.n, cfg) for d in draws]


@pytest.mark.parametrize(
    "suite, n, m, trials",
    [
        ("perspective_sum", 3, 2, 50),  # the benchmark's searches
        ("pooled_inverse", 8, 4, 20),  # its Loewner suites
        ("pooled_mean", 8, 4, 20),
        ("mean_monotonicity", 8, 4, 20),
        ("q_trace", 4, 2, 100),  # its commuting suites
        ("perspective_sum", 8, 4, 256),
    ],
)
def test_groups_of_small_sizes_run_whole(suite, n, m, trials):
    # each size class runs as one stack: every n of a Loewner suite's class, one n elsewhere
    cfg = TrialConfig(suite=suite, n=n, m=m, family_kind="contractive")
    draws, classes = _evaluated(SUITES[suite], trials, cfg)
    assert sorted(len(ks) for ks in _runs(draws, cfg, SUITES[suite])) == sorted(
        classes.count(size) for size in set(classes)
    )
    if suite != "q_trace":
        assert len(set(classes)) == 1 < len({d.n for d in draws})


@pytest.mark.parametrize("suite", ["perspective_sum", "pooled_inverse", "operator_jensen"])
def test_a_large_group_runs_in_parts_within_its_byte_share(monkeypatch, suite):
    cfg = TrialConfig(suite=suite, n=3, m=4)
    draws, classes = _evaluated(SUITES[suite], 256, cfg)
    share = 4000
    monkeypatch.setattr(harness, "_BLOCK_BYTES", share * cfg.n)
    runs = _runs(draws, cfg, SUITES[suite])
    members = {}
    for k, N in enumerate(classes):
        members.setdefault(N, []).append(k)
    assert len(runs) > len(members)
    for ks in runs:
        # each part is a run of consecutive positions of one class (by n, then trial),
        # within the share counted at the class size
        N = classes[ks[0]]
        order = sorted(members[N], key=lambda k: (draws[k].n, k))
        assert ks == order[order.index(ks[0]) : order.index(ks[0]) + len(ks)]
        size = sum((N / draws[k].n) ** 2 * harness._nbytes(v) for k in ks for v in draws[k].values)
        assert len(ks) == 1 or size <= share
    assert sorted(k for ks in runs for k in ks) == list(range(len(draws)))


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
    """One Loewner trial rebuilt from its seed through the public functions: its instance,
    the matrices in the order its build returns them, and its verdict."""
    rng = np.random.default_rng(trial_seed)
    sqrt, tol = power_fn(0.5), cfg.tolerance
    if suite == "operator_jensen":
        n = int(rng.integers(1, cfg.n + 1))
        C = gen.rand_contraction(rng, n)
        X = gen.rand_psd(rng, n, scale=2.0)
        return ([C], [X]), operator_jensen_residual(sqrt, C, X, tol)
    if suite == "mean_monotonicity":
        n = int(rng.integers(1, cfg.n + 1))
        A_part = gen.rand_pd(rng, n, cfg.spectrum_range)
        B_part = gen.rand_pd(rng, n, cfg.spectrum_range)
        A_whole = A_part + gen.rand_psd(rng, n, scale=float(rng.uniform(0.1, 1.0)))
        B_whole = B_part + gen.rand_pd(rng, n, (0.05, 0.5))
        instance = ([A_part], [B_part], [A_whole], [B_whole])
        return instance, mean_monotonicity_residual(sqrt, A_part, B_part, A_whole, B_whole, tol)
    m = int(rng.integers(1, cfg.m + 1))
    n = int(rng.integers(1, cfg.n + 1))
    if suite == "operator_shannon":
        As = [gen.rand_expansive(rng, n) for _ in range(m)]
        Bs = gen.rand_split_matching(rng, sum(As), m, cfg.spectrum_range)
        f = harness._concave_f(rng)
        if f.family == "power":
            f = power_fn(0.5, offset=-1.0)
        return (As, Bs), operator_shannon_residual(As, Bs, f, tol)
    As = [gen.rand_pd(rng, n, cfg.spectrum_range) for _ in range(m)]
    if suite == "pooled_inverse":
        Xs = [gen.rand_square(rng, n) for _ in range(m)]
        return (Xs, As), pooled_inverse_residual(Xs, As, tol)
    Bs = [gen.rand_pd(rng, n, cfg.spectrum_range) for _ in range(m)]
    residual = {"pooled_mean": pooled_mean_residual, "split_mean": split_mean_residual}[suite]
    return (As, Bs), residual(sqrt, As, Bs, tol)


@pytest.mark.parametrize("suite", LOEWNER_SUITES)
def test_loewner_suite_trials_equal_the_public_residual(monkeypatch, suite):
    # as for perspective_sum: built bits, padded one-trial bits, public verdict and round-off;
    # split_mean has a violation in these trials on this window, so both verdicts occur
    window = (0.25, 4.0) if suite == "split_mean" else (0.5, 2.0)
    cfg = TrialConfig(suite=suite, trials=200, seed=7, n=4, m=3, spectrum_range=window)
    stacked = SUITES[suite]
    for config, rep, recorded in _recorded_runs(monkeypatch, cfg):
        for ts, min_eig, holds in recorded:
            instance, verdict = _public_loewner_trial(suite, ts, config)
            built, alone = _judged_alone(stacked, config, ts)
            assert alone == min_eig, ts
            assert verdict.holds == holds, ts
            if built is None:
                assert verdict.residual_min_eigenvalue == min_eig == 0.0
                continue
            _assert_same_bits(built, instance)
            _assert_close_to_public(min_eig, verdict, len(instance[0][0]), config)
        assert rep.violations == sum(not holds for _, _, holds in recorded)
        assert rep.worst_gap == min(min_eig for _, min_eig, _ in recorded)


# LAPACK calls of a Loewner suite: eigh per size class of a block (one per kernel step),
# then eigh, qr and svd per n-group of a block (its build).
_CLASS_CALLS = {
    "operator_jensen": (2, 0, 0, 1),  # [C† X C, X]; residual.  The contractions' svd.
    "operator_shannon": (3, 1, 1, 0),  # [A, A_i]; perspective; residual.  [S, A] to split B
    "pooled_inverse": (2, 0, 1, 0),  # [A_i, A]; residual
    "pooled_mean": (4, 0, 1, 0),  # [B_i, B]; means' arguments; f-sum; residual
    "split_mean": (3, 0, 1, 0),  # [A_i, B_i, B]; means' arguments; residual
    "mean_monotonicity": (3, 0, 1, 0),  # order gaps beside B_whole, B_part; means; residual
}


def _classes_and_groups(stacked, config, seeds):
    """The (size class, n-group) counts of the evaluated draws of seeds, block by block."""
    classes = groups = 0
    for first in range(0, len(seeds), harness._BLOCK):
        draws = stacked.draws(seeds[first : first + harness._BLOCK], config)
        sizes = _evaluated_sizes(draws)
        classes += len({harness._size_class(n, config) for n in sizes})
        groups += len(sizes)
    return classes, groups


@pytest.mark.parametrize("suite", LOEWNER_SUITES)
def test_loewner_suite_lapack_calls_per_group_per_block(lapack_calls, suite):
    # at n=3 every size pads to 3, one class per block; at n=10, above the cap, each n is
    # its own class
    per_class, *per_group = _CLASS_CALLS[suite]
    for n, trials in ((3, 300), (10, 60)):
        cfg = TrialConfig(suite=suite, trials=trials, seed=5, n=n, m=2)
        seeds = [cfg.seed + i for i in range(cfg.trials)]
        classes, groups = _classes_and_groups(SUITES[suite], cfg, seeds)
        assert (classes < groups) == (n <= harness._PAD_CAP)
        for calls in lapack_calls.values():
            calls.clear()
        run_suite(cfg)
        counts = tuple(len(lapack_calls[name]) for name in ("eigh", "qr", "svd"))
        eigh = per_class * classes + per_group[0] * groups
        assert counts == (eigh, *(k * groups for k in per_group[1:]))


def test_size_class_pads_to_the_dimension_cap_of_eight():
    # every n of a run at n_max <= 8 pads to n_max, and a larger run pads none
    def classes(n_max):
        cfg = TrialConfig(suite="perspective_sum", n=n_max)
        return [harness._size_class(n, cfg) for n in range(1, n_max + 1)]

    assert classes(1) == [1]
    assert classes(3) == [3, 3, 3]
    assert classes(8) == [8] * 8
    assert classes(9) == list(range(1, 10))


def test_each_convexity_grid_size_is_its_own_size_class():
    # a grid size is not a dimension: _size_class keeps a size above config.n as it is, and
    # TrialConfig caps n below the smallest grid size, so no grid is padded at any n
    draws = SUITES["convexity_check"].draws(range(200), TrialConfig(suite="convexity_check"))
    grids = sorted({d.n for d in draws})
    assert grids == [101, 201]
    with pytest.raises(DomainError):
        TrialConfig(suite="convexity_check", n=grids[0] - 1)
    for n_max in range(1, 65):
        cfg = TrialConfig(suite="convexity_check", n=n_max)
        assert [harness._size_class(n, cfg) for n in grids] == grids


def test_pad_embeds_each_built_matrix_in_an_identity():
    rng = np.random.default_rng(4)
    A = gen.rand_pd(rng, 2, (0.5, 2.0))
    m, fs = np.array([1]), [power_fn(0.5)]
    padded_m, P, padded_fs = harness._pad([m, A[None], fs], 5)
    assert padded_m is m and padded_fs is fs
    expected = np.eye(5, dtype=complex)
    expected[:2, :2] = A
    assert P.shape == (1, 5, 5) and P[0].tobytes() == expected.tobytes()
    own = A[None]
    assert harness._pad([own], 2)[0] is own  # a stack already at its class size is kept


@pytest.mark.parametrize("suite", ["perspective_sum", "search", *LOEWNER_SUITES])
def test_every_eigensolve_of_a_padded_judge_takes_the_own_sizes(monkeypatch, suite):
    # so that each one orders its eigenpairs own-first and checks the sides of the pad
    calls, building = [], [False]
    real, ordered = loewner._decompose, harness._ordered

    def recording(H, size=None):
        if not building[0]:
            calls.append((H.shape, size))
        return real(H, size)

    def ordering(w, U, size=None):
        calls.append((U.shape, size))
        return ordered(w, U, size)

    monkeypatch.setattr(loewner, "_decompose", recording)
    monkeypatch.setattr(harness, "_decompose", recording)  # the judge's, of the residuals
    if suite in SUITES:  # a build runs at its own n, unpadded: only operator_shannon's decomposes
        stacked = SUITES[suite]

        def build(*args):
            building[0] = True
            try:
                return stacked.build(*args)
            finally:
                building[0] = False

        monkeypatch.setitem(SUITES, suite, stacked._replace(build=build))
    if suite == "search":  # and the recheck's, of the Jacobi eigenpairs
        monkeypatch.setattr(harness, "_ordered", ordering)
        rep = counterexample_search(_search_config("sum_fb", 60))
        assert rep.findings
    else:
        run_suite(TrialConfig(suite=suite, trials=60, seed=3, n=3, m=2))
    assert calls and all(size is not None for _, size in calls)
    assert any((np.asarray(size) < shape[-1]).any() for shape, size in calls)


# -- one-member identity trials --------------------------------------------------

# The suites whose sides agree at one member, with the family kinds they run.
_IDENTITY_SUITES = [
    *(("perspective_sum", kind) for kind in harness.FAMILY_KINDS),
    ("pooled_inverse", "expansive"),
    ("split_mean", "expansive"),
]


@pytest.mark.parametrize("n, m", [(3, 2), (8, 4)])
@pytest.mark.parametrize("suite, family_kind", _IDENTITY_SUITES)
def test_one_member_trials_give_the_zero_residual(monkeypatch, suite, family_kind, n, m):
    # the premise of the identity draws: drawn in full and run through the
    # suite's build and judge, every one-member trial gives gap +0.0 at scale 1.0
    monkeypatch.setattr(harness, "_identity", lambda m: False)
    cfg = TrialConfig(suite=suite, n=n, m=m, family_kind=family_kind)
    stacked = SUITES[suite]
    draws = [d for d in stacked.draws(range(2000), cfg) if d.values[0] == 1]
    assert len(draws) > 2000 // (2 * m)
    for ks, (gap, scale) in harness._grouped(draws, cfg, stacked):
        assert [(g, math.copysign(1.0, g)) for g in gap.tolist()] == [(0.0, 1.0)] * len(ks)
        assert np.all(scale == 1.0)


def test_identity_draws_stop_at_m_and_take_no_kernel():
    cfg = TrialConfig(suite="split_mean", n=3, m=2)
    stacked = SUITES["split_mean"]
    draws = stacked.draws(range(200), cfg)
    identities = [k for k, d in enumerate(draws) if d is harness._IDENTITY_DRAW]
    ms = [int(np.random.default_rng(seed).integers(1, cfg.m + 1)) for seed in range(200)]
    assert identities == [k for k, m in enumerate(ms) if m == 1]
    evaluated = []

    def recording(config, m, *stacks):
        evaluated.extend(m.tolist())
        return stacked.build(config, m, *stacks)

    gaps, holds = harness._verdicts(draws, range(200), cfg, stacked._replace(build=recording))
    assert sorted(evaluated) == sorted(m for m in ms if m != 1)
    assert [(gaps[k], holds[k]) for k in identities] == [(0.0, True)] * len(identities)


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 5, 1111])
@pytest.mark.parametrize(
    "run",
    [
        "suite perspective_sum",
        "suite pooled_inverse",
        "suite split_mean",
        "search perspective_sum",
        "search sum_fb",  # its draws never stop at m
    ],
)
def test_identity_draws_leave_the_reports_of_the_full_draws(monkeypatch, run, seed):
    kind, name = run.split()
    if kind == "search":
        go, cfg = counterexample_search, _search_config(name, 300, seed=seed)
    else:
        go, cfg = run_suite, TrialConfig(suite=name, trials=300, seed=seed, n=4, m=3)
    report = go(cfg)
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_identity", lambda m: False)
        assert _canonical(go(cfg)) == _canonical(report)
    replay = go(replace(cfg, trials=1, seed=report.worst_case_seed))
    assert replay.worst_gap == report.worst_gap


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


def _ref_q(rng) -> float:
    """The q draw of the q suites: a branch off the q = 2 degeneracy, then q within it."""
    if rng.random() < 0.7:
        return float(rng.uniform(-2.0, 1.9))
    return float(rng.uniform(2.1, 3.5))


def _public_commuting_trial(suite, trial_seed, cfg):
    """(gap, holds, scale) of one scalar or trace trial rebuilt from its seed by the public
    functions, scale the one its tolerance multiplies."""
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
        return (0.0 if ok else -1.0), ok, 0.0
    n = int(rng.integers(1, cfg.n + 1))
    if suite == "scalar_equality":
        b = gen.rand_sequence(rng, n)
        v = generalized_log_sum_gap(
            log_fn(), identity_fn(), SequencePair(tuple(rng.uniform(0.1, 10.0) * b), tuple(b)), tol
        )
        scale = max(1.0, abs(v.lhs), abs(v.rhs))
        return -abs(v.gap), abs(v.gap) <= tol * scale, scale
    if suite == "rational_reverse":
        a = rng.uniform(1.0, 10.0, n)
        v = rational_example_gap(SequencePair(tuple(a), tuple(rng.uniform(0.9, 2.4, n) * a)), tol)
        return v.gap, v.holds, max(1.0, abs(v.lhs), abs(v.rhs))
    if suite == "relative_entropy":
        d = quantum_relative_entropy(*gen.rand_density_pair(rng, n))
        return d, d >= -tol, 1.0
    if suite == "entropy_bound":
        s = von_neumann_entropy(gen.rand_density(rng, n))
        margin = min(s, math.log(n) - s)
        return margin, margin >= -tol, 1.0
    if suite in ("trace_log_sum", "trace_reverse", "q_trace", "exp_log_trace"):
        A, B = gen.rand_commuting_pair(rng, n, harness._TRACE_SPECTRUM, harness._TRACE_SPECTRUM)
        v = {
            "trace_log_sum": lambda: trace_log_sum_gap(log_fn(), identity_fn(), A, B, tol),
            "trace_reverse": lambda: reverse_trace_gap(log_fn(), identity_fn(), A, B, tol),
            "exp_log_trace": lambda: exp_log_trace_gap(A, B, tol),
            "q_trace": lambda: q_trace_gap(
                A, B, _ref_q(rng), float(rng.uniform(0.5, 2.0)), tol
            ),
        }[suite]()
        return v.gap, v.holds, max(1.0, abs(v.lhs), abs(v.rhs))
    pair = gen.rand_sequence_pair(rng, n)
    if suite == "q_direction":
        verdicts = [q_log_sum_gap(pair, q, 1.0, tol) for q in (0.0, 0.5, 1.5, 2.5, 3.0)]
        scale = max(max(1.0, abs(v.lhs), abs(v.rhs)) for v in verdicts)
        return min(v.gap for v in verdicts), all(v.holds for v in verdicts), scale
    if suite == "ratio_bounds":
        g = identity_fn() if rng.random() < 0.5 else power_fn(2.0)
        rb = ratio_bounds(g, pair)
        agg = float(np.sum(g(np.asarray(pair.a))) / np.sum(g(np.asarray(pair.b))))
        slack = tol * max(1.0, abs(rb.m_g), abs(rb.M_g))
        holds = rb.m_g <= rb.M_g + slack and rb.m_g - slack <= agg <= rb.M_g + slack
        return min(rb.M_g - rb.m_g, agg - rb.m_g, rb.M_g - agg), holds, slack / tol
    v = {
        "scalar_log_sum": lambda: generalized_log_sum_gap(log_fn(), identity_fn(), pair, tol),
        "scalar_reverse": lambda: reverse_log_sum_gap(log_fn(), identity_fn(), pair, tol),
        "q_log_sum": lambda: q_log_sum_gap(
            pair, _ref_q(rng), float(rng.uniform(0.5, 2.0)), tol
        ),
    }[suite]()
    return v.gap, v.holds, max(1.0, abs(v.lhs), abs(v.rhs))


# How far a padded trace trial's gap, or a scalar one at N = 8, may move from the public
# one-pair gap's, in units of N u scale (u the unit round-off, N the size class, scale the
# tolerance's).  Padded products run BLAS at N, not n, and numpy's pairwise sum regroups 8
# entries; the largest moves measured over 3000 trials at n=4 and 2000 at n=8, per suite, are
# 16.3 (q_trace at n=8), at most 10.1 in every other trace suite and 5.4 in a scalar suite.
_COMMUTING_PAD_MOVE_K = 64
_TRACE_SUITES = (
    "trace_log_sum",
    "trace_reverse",
    "q_trace",
    "exp_log_trace",
    "relative_entropy",
    "entropy_bound",
)


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
    padded = 0
    for ts, gap, holds in recorded:
        want_gap, want_holds, scale = _public_commuting_trial(suite, ts, cfg)
        trial_n = real.draws([ts], cfg)[0].n
        N = harness._size_class(trial_n, cfg)
        if suite in _TRACE_SUITES and trial_n < N:
            # a padded trace trial: the same verdict, its gap within round-off
            padded += 1
            assert holds == bool(want_holds), ts
            bound = _COMMUTING_PAD_MOVE_K * N * np.finfo(float).eps * scale
            assert abs(gap - want_gap) <= bound, ts
        else:
            # bit for bit, the sign of a zero included: every scalar suite below N = 8
            assert (float(gap).hex(), holds) == (float(want_gap).hex(), bool(want_holds)), ts
    assert (padded > 0) == (suite in _TRACE_SUITES and n <= harness._PAD_CAP)
    assert rep.violations == sum(not holds for _, _, holds in recorded)
    assert rep.worst_gap == min(gap for _, gap, _ in recorded)


class _CountingRng:
    """A Generator that counts the calls made to it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


# Generator calls each trial's draw makes.  A scalar or trace trial takes its
# size, then each run of consecutive uniforms or Gaussians in one call.
_DRAW_CALLS = {
    "scalar_log_sum": 2,
    "scalar_equality": 2,
    "scalar_reverse": 2,
    "rational_reverse": 2,
    "q_log_sum": 2,
    "q_direction": 2,
    "ratio_bounds": 2,
    "trace_log_sum": 3,
    "trace_reverse": 3,
    "q_trace": 3,
    "exp_log_trace": 3,
    "relative_entropy": 3,
    "entropy_bound": 3,
}
# The most calls per trial (mean over seeds 0..499 at n=8, m=4) a suite's draw
# may make: those of drawing each value in its own call.
_DRAW_CALLS_CEILING = {
    "scalar_log_sum": 3,
    "scalar_equality": 3,
    "scalar_reverse": 3,
    "rational_reverse": 3,
    "q_log_sum": 6,
    "q_direction": 3,
    "ratio_bounds": 4,
    "convexity_check": 2.272,
    "trace_log_sum": 4,
    "trace_reverse": 4,
    "q_trace": 7,
    "exp_log_trace": 4,
    "relative_entropy": 4,
    "entropy_bound": 3,
    "operator_jensen": 4,
    "perspective_sum": 11.958,
    "operator_shannon": 13.468,
    "pooled_inverse": 7.12,
    "pooled_mean": 12.128,
    "split_mean": 10.948,
    "mean_monotonicity": 9,
}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_draw_generator_calls_per_trial(suite):
    assert sorted(_DRAW_CALLS_CEILING) == sorted(SUITES)
    cfg = TrialConfig(suite=suite, n=8, m=4)
    calls = []
    for seed in range(500):
        rng = _CountingRng(np.random.default_rng(seed))
        SUITES[suite].draw(rng, cfg)
        calls.append(rng.calls)
    if suite in _DRAW_CALLS:
        assert set(calls) == {_DRAW_CALLS[suite]}
    assert sum(calls) / len(calls) <= _DRAW_CALLS_CEILING[suite]


# LAPACK calls of a trace suite: eigh per size class of a block (one per kernel step), then
# qr per n-group of a block (its build), and no svd.
_TRACE_GROUP_CALLS = {
    "trace_log_sum": (3, 1),  # the mix; the product path's B and product
    "trace_reverse": (3, 1),
    "q_trace": (3, 1),
    "exp_log_trace": (2, 1),  # the mix; log B
    "relative_entropy": (1, 1),  # rho beside sigma and the mix
    "entropy_bound": (1, 1),
}


@pytest.mark.parametrize("suite", sorted(_TRACE_GROUP_CALLS))
def test_trace_suite_lapack_calls_per_group_per_block(lapack_calls, suite):
    # at n=4 every size pads to 4, one class per block; at n=10, above the cap, each n is its
    # own class
    per_class, per_group = _TRACE_GROUP_CALLS[suite]
    for n, trials in ((4, 300), (10, 60)):
        cfg = TrialConfig(suite=suite, trials=trials, seed=5, n=n)
        seeds = [cfg.seed + i for i in range(cfg.trials)]
        classes, groups = _classes_and_groups(SUITES[suite], cfg, seeds)
        assert (classes < groups) == (n <= harness._PAD_CAP)
        for calls in lapack_calls.values():
            calls.clear()
        run_suite(cfg)
        counts = tuple(len(lapack_calls[name]) for name in ("eigh", "qr", "svd"))
        assert counts == (per_class * classes, per_group * groups, 0)


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


# -- one stack per size class for the scalar and trace suites ----------------------

_SIZED_SUITES = [suite for suite in COMMUTING_SUITES if suite != "convexity_check"]


@pytest.mark.parametrize("suite", _SIZED_SUITES)
def test_sized_suites_judge_one_stack_per_size_class(monkeypatch, suite):
    # every n of a block with one size class is judged in one call: one class per block at
    # n=4, one per n above the cap; each n-group is built once, at its own n
    real = SUITES[suite]
    calls = {"build": 0, "judge": 0}

    def counted(step):
        def count(*args):
            calls[step] += 1
            return getattr(real, step)(*args)

        return count

    counting = real._replace(build=counted("build"), judge=counted("judge"))
    monkeypatch.setitem(SUITES, suite, counting)
    for n, trials in ((4, 300), (10, 60)):
        cfg = TrialConfig(suite=suite, trials=trials, seed=5, n=n)
        classes, groups = _classes_and_groups(real, cfg, [cfg.seed + i for i in range(trials)])
        assert (classes < groups) == (n <= harness._PAD_CAP)
        calls.update(build=0, judge=0)
        run_suite(cfg)
        assert calls == {"build": groups, "judge": classes}


_SCALAR_SUITES = [suite for suite in _SIZED_SUITES if suite not in _TRACE_SUITES]


@pytest.mark.parametrize("n", [2, 3, 5, 7, 8])
@pytest.mark.parametrize("suite", _SCALAR_SUITES)
def test_scalar_trials_keep_their_unpadded_bits_below_size_eight(suite, n):
    # numpy sums fewer than 8 entries in order, so a zero pad leaves a padded row's sums, and
    # its gap, as the trial judged alone and unpadded gives them, bit for bit; at N = 8 the
    # pairwise sum regroups 8 entries, and the gap moves at round-off under the same verdict
    stacked = SUITES[suite]
    cfg = TrialConfig(suite=suite, n=n)
    seeds = list(range(300))
    draws = stacked.draws(seeds, cfg)
    gaps, holds = harness._verdicts(draws, seeds, cfg, stacked)
    padded = 0
    for draw, gap, ok in zip(draws, gaps, holds):
        built = stacked.build(cfg, *harness._stacks([draw]))
        checks, scale = stacked.judge(cfg, np.array([draw.n]), *built)
        assert bool(np.all(_holds(checks, scale, cfg.tolerance))) == ok
        least = min(np.ravel(checks).tolist())  # the first least check, as Python takes it
        padded += draw.n < n
        if n < 8:
            assert least.hex() == gap.hex()
        else:
            bound = _COMMUTING_PAD_MOVE_K * n * np.finfo(float).eps * np.max(scale)
            assert abs(least - gap) <= bound
    assert padded > 0


@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 + 5, 2**64 - 1])
def test_bounded_draws_equal_the_generators_integers(seed):
    # caps 1..64 three times each, then doubles (as a trial's members take them), so that a
    # draw that takes the half held back from a word comes after other draws; then caps whose
    # Lemire rejection fires about half the time
    stream, rng = next(harness._rngs([seed])), np.random.default_rng(seed)
    for cap in range(1, 65):
        for _ in range(3):
            assert harness._bounded(stream, cap) == int(rng.integers(cap))
        assert stream.random(cap % 3).tobytes() == rng.random(cap % 3).tobytes()
    words = []
    raw = stream.raw
    stream.raw = lambda: words.append(raw()) or words[-1]
    draws = 200
    for cap in (2**31 + 1, 3 * 2**30 + 7, 2**32 - 1):
        for _ in range(draws):
            assert harness._bounded(stream, cap) == int(rng.integers(cap))
    assert 2 * len(words) > 3 * draws + 50  # the rejections drew more halves
    assert stream.random(3).tobytes() == rng.random(3).tobytes()
    assert harness._size(stream, 4) == int(rng.integers(1, 5))


def test_bounded_redraws_a_rejected_half():
    # cap 3 rejects a product whose low 32 bits lie below (2**32 - 3) % 3 = 1: a low half 0 is
    # redrawn from the word's high half; the next draw takes a new word and holds its high half
    stream = next(harness._rngs([0]))
    words = iter([(2**31 + 5) << 32, (5 << 32) | 2**31])
    stream.raw = lambda: next(words)
    assert harness._bounded(stream, 3) == (3 * (2**31 + 5)) >> 32 == 1
    assert stream.half is None
    assert harness._bounded(stream, 3) == (3 * 2**31) >> 32 == 1
    assert stream.half == 5
    assert harness._bounded(stream, 3) == 0
    assert harness._bounded(stream, 1) == 0 and stream.half is None  # cap 1 draws nothing


@pytest.mark.parametrize("suite", ["trace_log_sum", "trace_reverse", "q_trace", "exp_log_trace"])
def test_padded_trace_trials_need_no_referee(monkeypatch, suite):
    # a padded pair's product path is its own block's, so at the benchmark's size no trial
    # disputes its cross-check: a dispute would start a child process for the referee
    def disputed(quantity, *pair):
        raise AssertionError(f"{suite} disputed its {quantity}")

    monkeypatch.setattr(traceform, "_referee", disputed)
    report = run_suite(TrialConfig(suite=suite, trials=400, seed=0, n=4))
    assert report.violations == 0
