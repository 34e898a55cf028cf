"""Self-tests of the benchmark: chunking, tracing and the reference kernel.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import ast
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import refkernel  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from logsumineq import harness  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL = workloads.Workload(
    "small",
    "one stream of each kind at small sizes",
    (
        workloads.search_stream("sum_fb"),
        *workloads.suite_streams(("q_trace", "perspective_sum", "convexity_check"), n=3, m=2),
    ),
    trials_per_call=8,
    calls_per_stream=3,
)


def _whole(stream, first_seed, trials):
    return workloads.Call(stream, first_seed, trials).run(harness)


@pytest.mark.parametrize("seed", [0, 5])
def test_chunked_calls_match_one_whole_call(seed):
    calls = workloads.plan(SMALL, seed)
    for stream in SMALL.streams:
        chunks = [c for c in calls if c.stream is stream]
        assert [c.seed for c in chunks] == [
            chunks[0].seed + k * SMALL.trials_per_call for k in range(len(chunks))
        ]
        reports = [c.run(harness) for c in chunks]
        whole = _whole(stream, chunks[0].seed, SMALL.trials_per_call * len(chunks))
        assert sum(r.violations for r in reports) == whole.violations
        worst = min(reports, key=lambda r: r.worst_gap)  # first on ties, as the harness
        assert worst.worst_gap == whole.worst_gap
        assert worst.worst_case_seed == whole.worst_case_seed
        chunk_findings = [f["seed"] for r in reports for f in r.findings]
        assert chunk_findings == [f["seed"] for f in whole.findings]


def test_windows_tile_the_seed_line():
    C, P = SMALL.trials_per_call, SMALL.calls_per_stream
    first = {c.stream.label: c.seed for c in workloads.plan(SMALL, 0)}
    nxt = {c.stream.label: c.seed for c in workloads.plan(SMALL, 1)}
    for label, seed in first.items():
        assert nxt[label] == seed + C * P


def _traced_pass(calls):
    tracer = Tracer()
    with tracer.installed():
        samples, _ = run.run_pass(calls, harness, refkernel.timed(), {}, tracer)
    return tracer, samples


def test_traced_counts_repeat_exactly():
    calls = workloads.plan(SMALL, 2)
    counts = []
    for _ in range(2):
        tracer, samples = _traced_pass(calls)
        assert not any(s.error or s.problems for s in samples)
        # every span sits under a harness call: the reference kernel is not traced
        roots = {tracer.names[tracer.span_name[r]] for r in tracer.span_root}
        assert roots == {"harness.run_suite", "harness.counterexample_search"}
        agg = tracer.aggregate()
        counts.append(
            (
                {name: row["calls"] for name, row in agg.items()},
                tracer.verdicts,
                tracer.trivial_verdicts,
                tracer.jacobi_verdicts,
            )
        )
    assert counts[0] == counts[1]
    by_name = counts[0][0]
    assert by_name["lapack.eigh"] > 0 and by_name["matfun.jacobi_eigh"] > 0
    assert by_name["harness.run_suite"] == 3 * SMALL.calls_per_stream


def test_wrapping_leaves_reports_identical_and_is_undone():
    import logsumineq.loewner as loewner
    import numpy as np

    originals = (np.linalg.eigh, loewner.psd_sqrt, harness.perspective_sum_residual)
    calls = workloads.plan(SMALL, 1)
    plain = [workloads.canonical(c.run(harness), harness) for c in calls]
    tracer = Tracer()
    with tracer.installed():
        assert loewner.psd_sqrt is not originals[1]  # rebound where imported by name
        traced = [workloads.canonical(c.run(harness), harness) for c in calls]
    assert traced == plain
    assert (np.linalg.eigh, loewner.psd_sqrt, harness.perspective_sum_residual) == originals
    assert tracer.absent == []


def test_self_time_subtracts_children():
    tracer = Tracer()
    outer = tracer.open(tracer.name_id("loewner.f"))
    inner = tracer.open(tracer.name_id("matfun.g"))
    tracer.close(inner)
    tracer.close(outer)
    tracer.span_start[:] = [0, 1000]
    tracer.span_end[:] = [5000, 3000]
    agg = tracer.aggregate({outer: 2.0})
    assert agg["loewner.f"]["us"] == 10.0 and agg["loewner.f"]["self_us"] == 6.0
    assert agg["matfun.g"]["self_us"] == 4.0 and agg["matfun.g"]["outer_us"] == 4.0


def test_known_answer_checks_flag_bad_reports():
    call = workloads.plan(SMALL, 0)[0]  # the sum_fb search stream
    report = call.run(harness)
    assert workloads.check(call, report) == []
    assert workloads.check(call, replace(report, findings=(), violations=0))
    suite_call = workloads.plan(SMALL, 0)[1]
    suite_report = suite_call.run(harness)
    assert workloads.check(suite_call, suite_report) == []
    assert workloads.check(suite_call, replace(suite_report, violations=1))


def test_reference_kernel_imports_nothing_from_the_package():
    tree = ast.parse((HERE / "refkernel.py").read_text())
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name and name.startswith("logsumineq") for name in imported)
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import refkernel; refkernel.run(); "
        "print(sorted(m for m in sys.modules if m.startswith('logsumineq')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
