"""The four benchmark workloads, their call plans and their known answers.

A workload is a set of streams.  A stream is one harness entry point with a
fixed configuration and a base seed that follows the repository's rule: 42
for the suites, 1111 for the contractive search (acceptance criterion 11).
Each stream is read as one long seeded run, trial t using seed
``base + t``, cut into consecutive calls of ``trials_per_call`` trials.  The
benchmark's ``--seed s`` picks window s of that run: the
``calls_per_stream`` calls that start at trial ``s * calls_per_stream *
trials_per_call``.  Together the calls of a window cover exactly the seeds
of one call of ``calls_per_stream * trials_per_call`` trials.  Windows are
never chosen to avoid or to hit a known failing seed; a call that raises is
counted as failed.

This module does not import ``logsumineq``: configurations are plain keyword
dictionaries, turned into ``TrialConfig`` objects only when a call runs, so
the set-up probe can time the package import itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

SEED_MOD = 2**64
SUITE_SEED = 42
SEARCH_SEED = 1111
FINDING_KEYS = frozenset(
    {
        "trial_index",
        "seed",
        "n",
        "m",
        "f",
        "lhs_form",
        "first_min_eigenvalue",
        "recheck_min_eigenvalue",
    }
)
# Known answer: a search finding is a candidate that the Jacobi recheck
# confirmed below this residual.
RECHECK_ABS_TOL = 1e-6

OPERATOR_SUITES = (
    "operator_jensen",
    "perspective_sum",
    "operator_shannon",
    "pooled_inverse",
    "pooled_mean",
    "split_mean",
    "mean_monotonicity",
)
SCALAR_SUITES = (
    "scalar_log_sum",
    "scalar_equality",
    "scalar_reverse",
    "rational_reverse",
    "q_log_sum",
    "q_direction",
    "ratio_bounds",
    "convexity_check",
)
TRACE_SUITES = (
    "trace_log_sum",
    "trace_reverse",
    "q_trace",
    "exp_log_trace",
    "relative_entropy",
    "entropy_bound",
)


@dataclass(frozen=True)
class Stream:
    """One harness entry point with a fixed configuration."""

    entry: str  # "run_suite" or "counterexample_search"
    config: dict
    base_seed: int
    expect_findings: bool = False  # search known to find counterexamples

    @property
    def label(self) -> str:
        if self.entry == "counterexample_search":
            return f"search:{self.config['lhs_form']}"
        return self.config["suite"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    streams: tuple[Stream, ...]
    trials_per_call: int
    calls_per_stream: int  # calls of each stream in one pass over the window


@dataclass(frozen=True)
class Call:
    stream: Stream
    seed: int
    trials: int

    def run(self, harness):
        config = harness.TrialConfig(**self.stream.config, seed=self.seed, trials=self.trials)
        return getattr(harness, self.stream.entry)(config)


def search_stream(lhs_form: str) -> Stream:
    config = dict(
        suite="perspective_sum", n=3, m=2, family_kind="contractive", lhs_form=lhs_form
    )
    return Stream("counterexample_search", config, SEARCH_SEED, lhs_form == "sum_fb")


def suite_streams(names, **config) -> tuple[Stream, ...]:
    return tuple(Stream("run_suite", dict(suite=s, **config), SUITE_SEED) for s in names)


# Windows are sized so that one pass takes about 18 s on the reference
# machine (a 20 s run is one pass).  Trial cost varies a lot with the drawn
# n and m, so large windows are what keeps the cost per trial alike across
# seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search_contractive",
            "criterion-11 contractive search; Python wrapping in matfun, loewner "
            "and generators dominates, the Jacobi solver never runs",
            (search_stream("perspective_sum"),),
            trials_per_call=50,
            calls_per_stream=240,
        ),
        Workload(
            "search_sum_fb",
            "pinned false sum_fb search; about half the trials are rechecked "
            "through jacobi_eigh, so the Jacobi layer and findings path run",
            (search_stream("sum_fb"),),
            trials_per_call=50,
            calls_per_stream=170,
        ),
        Workload(
            "operator_suites",
            "the 7 Loewner suites at n=8, m=4: larger matrices, means, "
            "inverses and split-matching families",
            suite_streams(OPERATOR_SUITES, n=8, m=4),
            trials_per_call=20,
            calls_per_stream=60,
        ),
        Workload(
            "commuting_suites",
            "8 scalar and 6 trace suites at defaults; loewner never runs and "
            "harness loop overhead has its largest share",
            suite_streams(SCALAR_SUITES + TRACE_SUITES),
            trials_per_call=100,
            calls_per_stream=24,
        ),
    )
}


def plan(workload: Workload, seed: int) -> list[Call]:
    """The calls of one pass over window `seed`, streams interleaved."""
    C, P = workload.trials_per_call, workload.calls_per_stream
    return [
        Call(stream, (stream.base_seed + (seed * P + j) * C) % SEED_MOD, C)
        for j in range(P)
        for stream in workload.streams
    ]


def first_trials(calls: list[Call]) -> list[Call]:
    """A one-trial call at the first seed of each stream, for warm-up and set-up."""
    firsts: dict[str, Call] = {}
    for call in calls:
        firsts.setdefault(call.stream.label, Call(call.stream, call.seed, 1))
    return list(firsts.values())


def canonical(report, harness) -> str:
    """Report JSON without its one timing field, for byte comparison."""
    payload = json.loads(harness.report_to_json(report))
    payload.pop("wall_time", None)
    return json.dumps(payload, sort_keys=True)


def _in_call(call: Call, seed: int) -> bool:
    return (int(seed) - call.seed) % SEED_MOD < call.trials


def check(call: Call, report) -> list[str]:
    """Problems with one call's report against the known answer; [] if none."""
    where = f"{call.stream.label} seed {call.seed}"
    problems = []
    if report.trials != call.trials:
        problems.append(f"{where}: report has {report.trials} trials, asked {call.trials}")
    if not math.isfinite(report.worst_gap):
        problems.append(f"{where}: worst_gap {report.worst_gap!r} is not finite")
    if not _in_call(call, report.worst_case_seed):
        problems.append(f"{where}: worst_case_seed {report.worst_case_seed} outside the call")
    if call.stream.entry == "run_suite":
        if report.violations != 0:
            problems.append(f"{where}: {report.violations} violations, known answer 0")
        return problems
    if report.violations != len(report.findings):
        problems.append(f"{where}: violations {report.violations} != {len(report.findings)} findings")
    for finding in report.findings:
        if set(finding) != FINDING_KEYS:
            problems.append(f"{where}: finding keys {sorted(finding)}")
            continue
        recheck = finding["recheck_min_eigenvalue"]
        if not (math.isfinite(recheck) and recheck < -RECHECK_ABS_TOL):
            problems.append(f"{where}: finding recheck {recheck!r} not below -{RECHECK_ABS_TOL}")
        if not _in_call(call, finding["seed"]):
            problems.append(f"{where}: finding seed {finding['seed']} outside the call")
    if call.stream.expect_findings and not report.findings:
        problems.append(f"{where}: no findings, known answer > 0")
    return problems
