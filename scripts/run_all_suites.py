#!/usr/bin/env python3
"""Run every registered verification suite and print a one-line summary each.

Example:
    python3 scripts/run_all_suites.py --trials 2000 --seed 42 --dim 4 --m 3
"""

import argparse
import sys

from logsumineq.harness import SUITES, TrialConfig, run_suite


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dim", type=int, default=4)
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--tol", type=float, default=1e-9)
    args = ap.parse_args()

    total_violations = 0
    for name in sorted(SUITES):
        cfg = TrialConfig(
            suite=name, trials=args.trials, seed=args.seed,
            n=args.dim, m=args.m, tolerance=args.tol,
        )
        rep = run_suite(cfg)
        total_violations += rep.violations
        print(
            f"{name:24s} trials={rep.trials:6d} violations={rep.violations:3d} "
            f"worst={rep.worst_gap:+.6e} worst_seed={rep.worst_case_seed:10d} "
            f"time={rep.wall_time:.2f}s"
        )
    print(f"\ntotal violations: {total_violations}")
    return 1 if total_violations else 0


if __name__ == "__main__":
    sys.exit(main())
