"""Child process that times set-up: import ``logsumineq``, run one trial.

Started by run.py in a fresh interpreter for each set-up sample.  numpy is
imported first and not counted; the reference kernel runs right before and
after the timed region (median of three runs each).  Prints one JSON object
with the raw time and the two kernel times.

    python3 perfbench/setup_probe.py --workload operator_suites
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (imported before timing on purpose)

import refkernel
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args()
    # Window 0, whatever the run's seed: the trial's cost is then the same in
    # every run and the figure measures set-up, not which instance was drawn.
    firsts = workloads.first_trials(workloads.plan(workloads.WORKLOADS[args.workload], 0))
    for _ in range(3):
        refkernel.run()
    # The kernel is noisier right after process start: take the median of 3.
    ref_before = statistics.median(refkernel.timed() for _ in range(3))
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from logsumineq import harness

    for call in firsts:
        call.run(harness)
    raw = time.perf_counter() - start
    ref_after = statistics.median(refkernel.timed() for _ in range(3))
    print(json.dumps({"raw_s": raw, "ref_before_s": ref_before, "ref_after_s": ref_after}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
