#!/usr/bin/env python3
"""Benchmark of the logsumineq verifier through its public entry points.

    python3 perfbench/run.py --workload search_contractive --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One process, one BLAS thread, one caller in a closed loop: each harness call
(``run_suite`` or ``counterexample_search`` with many trials) starts when the
previous one returns.  ``--seed`` picks the window of trial seeds (see
workloads.py).  The calls of that window are run in whole passes while
another pass fits in ``--seconds``; a window is sized to take most of a
20 s run on the reference machine, so a run is usually one pass.  Afterwards
the first call of each stream is run again, untimed, and must give the same
report as before, ``wall_time`` aside.

Drift normalization: a fixed reference kernel (refkernel.py) is timed
between consecutive calls, and each call's time is divided by the mean of
the kernel times right before and after it, then multiplied by
``refkernel.NOMINAL_S``.  Raw times and both kernel times of every call are
written to ``perfbench/out/`` so the normalized figures can be recomputed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` takes the first
third of the window's calls, runs them untraced while that fits in half of
``--seconds`` (at least once), then once traced, and reports only the
per-layer metrics (tracer.py); the traced reports must equal the untraced
ones.  The last line of stdout is one JSON object: correct, attempted and
failed calls, and the metrics.  The benchmark pins no CPUs and drops no
caches.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy loads BLAS; inherited by the set-up probes
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import refkernel  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_LAUNCHES = 21


@dataclass
class Sample:
    """One timed call: raw time and the reference-kernel times around it."""

    call: workloads.Call
    raw_s: float
    ref_before_s: float
    ref_after_s: float
    error: str | None = None
    problems: list[str] = field(default_factory=list)
    findings: int = 0
    root_span: int = -1

    @property
    def scale(self) -> float:
        """Drift factor: nominal over measured reference-kernel time."""
        return refkernel.NOMINAL_S / ((self.ref_before_s + self.ref_after_s) / 2.0)

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.scale


def declared_units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind ("end_to_end" or "per_layer")."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared[kind]}


def load_harness():
    """Import logsumineq from this checkout's src/, or exit without a result."""
    if not (SRC / "logsumineq" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'logsumineq'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import logsumineq
    from logsumineq import harness

    if Path(logsumineq.__file__).resolve().parent != SRC / "logsumineq":
        sys.exit(f"perfbench: imported logsumineq from {logsumineq.__file__}, not {SRC}")
    return harness


def run_pass(calls, harness, ref_s, first_reports, tracer=None):
    """Time each call between reference-kernel runs; check every report.

    `ref_s` is the kernel time measured right before the first call; returns
    the samples and the last kernel time.  `first_reports` maps (stream,
    seed) to the canonical report of that call's first run.
    """
    samples = []
    for call in calls:
        report = error = None
        root = tracer.open(tracer.name_id(f"harness.{call.stream.entry}")) if tracer else -1
        start = time.perf_counter()
        try:
            report = call.run(harness)
        except Exception as exc:  # a failing call is counted; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        raw = time.perf_counter() - start
        if tracer:
            tracer.close(root)
        ref_after = refkernel.timed()
        sample = Sample(call, raw, ref_s, ref_after, error, root_span=root)
        if report is not None:
            sample.findings = len(report.findings)
            sample.problems = workloads.check(call, report)
            text = workloads.canonical(report, harness)
            if first_reports.setdefault((call.stream.label, call.seed), text) != text:
                sample.problems.append(
                    f"{call.stream.label} seed {call.seed}: report differs from the "
                    "first run of the same call"
                )
        samples.append(sample)
        ref_s = ref_after
    return samples, ref_s


def run_passes(calls, harness, seconds, first_reports):
    """Whole passes over `calls` while another pass fits in `seconds` (at least one).

    Whole passes keep the mix of calls the same in every run.
    """
    samples, passes = [], 0
    ref = refkernel.timed()
    start = time.perf_counter()
    elapsed = last_pass = 0.0
    while passes == 0 or elapsed + last_pass <= seconds:
        batch, ref = run_pass(calls, harness, ref, first_reports)
        samples += batch
        passes += 1
        last_pass = time.perf_counter() - start - elapsed
        elapsed += last_pass
    return samples, passes


def warm_up(calls, harness) -> None:
    """One trial per stream and a few kernel runs, so lazy set-up is not timed."""
    for call in workloads.first_trials(calls):
        call.run(harness)
    for _ in range(5):
        refkernel.run()
    gc.collect()


def setup_launches(workload: str) -> list[dict]:
    """Time fresh-process set-up; the first launch only warms the bytecode cache."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload]
    runs = []
    for k in range(SETUP_LAUNCHES + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
        if k:
            row = json.loads(done.stdout.strip().splitlines()[-1])
            row["norm_s"] = row["raw_s"] * refkernel.NOMINAL_S / (
                (row["ref_before_s"] + row["ref_after_s"]) / 2.0
            )
            runs.append(row)
    return runs


def blas_info() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (AttributeError, KeyError, TypeError):
        return {"name": "unknown", "version": "unknown"}


def environment(samples) -> dict:
    refs = [s.ref_after_s for s in samples]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_vars": {var: os.environ[var] for var in THREAD_VARS},
        "ref_kernel_nominal_s": refkernel.NOMINAL_S,
        "ref_kernel_measured_median_s": statistics.median(refs),
        "isolation": "none: the benchmark pins no CPUs and drops no caches",
    }


def sample_rows(samples) -> list[dict]:
    return [
        {
            "stream": s.call.stream.label,
            "seed": s.call.seed,
            "trials": s.call.trials,
            "raw_s": s.raw_s,
            "ref_before_s": s.ref_before_s,
            "ref_after_s": s.ref_after_s,
            "norm_s": s.norm_s,
            "error": s.error,
        }
        for s in samples
    ]


def percentiles_us(times_s, samples) -> tuple[float, float]:
    """Median and 90th percentile over calls of µs per trial."""
    per_trial = [t / s.call.trials * 1e6 for t, s in zip(times_s, samples)]
    return statistics.median(per_trial), statistics.quantiles(per_trial, n=10)[-1]


def end_to_end(samples, setup) -> tuple[dict, dict]:
    """Normalized (bounded) metrics and their raw wall-clock companions."""
    ok = [s for s in samples if s.error is None]
    if not ok:
        sys.exit("perfbench: every call failed; no timing to report")
    trials = sum(s.call.trials for s in ok)
    p50, p90 = percentiles_us([s.norm_s for s in ok], ok)
    raw_p50, raw_p90 = percentiles_us([s.raw_s for s in ok], ok)
    metrics = {
        "trials_per_s.norm": trials / sum(s.norm_s for s in ok),
        "us_per_trial.norm.p50": p50,
        "us_per_trial.norm.p90": p90,
        "setup_s": statistics.median(r["norm_s"] for r in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_metrics = {
        "trials_per_s.raw": trials / sum(s.raw_s for s in ok),
        "us_per_trial.raw.p50": raw_p50,
        "us_per_trial.raw.p90": raw_p90,
        "setup_s.raw": statistics.median(r["raw_s"] for r in setup),
    }
    return metrics, raw_metrics


def end_to_end_run(workload, calls, harness, seconds):
    """Set-up launches, timed passes, then an untimed repeat of each stream's first call."""
    first_reports: dict = {}
    setup = setup_launches(workload.name)
    timed, passes = run_passes(calls, harness, seconds, first_reports)
    repeats, _ = run_pass(calls[: len(workload.streams)], harness, refkernel.timed(), first_reports)
    metrics, raw_metrics = end_to_end(timed, setup)
    extra = {"passes": passes, "timed_calls": len(timed), "setup_launches": setup, "raw": raw_metrics}
    return timed + repeats, metrics, extra


def per_layer_run(workload, calls, harness, seconds):
    """Untraced passes over the first third of the window, then one traced pass."""
    first_reports: dict = {}
    part = calls[: len(workload.streams) * (workload.calls_per_stream // 3)]
    untraced, passes = run_passes(part, harness, seconds / 2.0, first_reports)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced, _ = run_pass(part, harness, refkernel.timed(), first_reports, tracer)
    norm_pass = sum(s.norm_s for s in untraced) / passes
    norm_traced = sum(s.norm_s for s in traced)
    by_name = tracer.aggregate({s.root_span: s.scale for s in traced})
    metrics = tracing.per_layer_metrics(
        by_name,
        tracer,
        trials=sum(s.call.trials for s in traced),
        findings=sum(s.findings for s in traced),
        overhead_share=1.0 - norm_pass / norm_traced,
    )
    extra = {
        "passes": passes,
        "timed_calls": len(traced),
        "absent": tracer.absent,
        "spans_by_name": by_name,
        "spans": tracer.spans(),
    }
    return untraced + traced, metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    harness = load_harness()
    workload = workloads.WORKLOADS[args.workload]
    calls = workloads.plan(workload, args.seed)
    warm_up(calls, harness)
    measure = per_layer_run if args.trace else end_to_end_run
    samples, metrics, extra = measure(workload, calls, harness, args.seconds)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        sys.exit(f"perfbench: measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}")

    failed = [s for s in samples if s.error is not None]
    wrong = [s for s in samples if s.problems]
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "environment": environment(samples),
        "calls": len(samples),
        "failed_share": len(failed) / len(samples),
        "wrong_verdicts": len(wrong),
        "failures": [f"{s.call.stream.label} seed {s.call.seed}: {s.error}" for s in failed],
        "problems": [p for s in wrong for p in s.problems],
        "metrics": metrics,
        **extra,
        "samples": sample_rows(samples),
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, separators=(",", ":")) + "\n")

    print(
        f"workload={workload.name} seed={args.seed} trace={args.trace} passes={extra['passes']} "
        f"timed_calls={extra['timed_calls']} trials_per_call={workload.trials_per_call} "
        f"calls={len(samples)} failed_share={detail['failed_share']:.6f} "
        f"wrong_verdicts={len(wrong)} detail={out_file.relative_to(ROOT)}"
    )
    for line in detail["failures"] + detail["problems"]:
        print(f"  {line}")
    if extra.get("absent"):
        print(f"  absent from this version (reported as 0): {', '.join(extra['absent'])}")
    result = {
        "correct": not wrong,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
