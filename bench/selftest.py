"""Counter self-test: two traced runs on one seed must count exactly alike.

    python3 bench/selftest.py [--seed N] [WORKLOAD ...]

Runs ``bench/run.py --trace 1`` twice per workload (all by default) and
compares every ``*.calls`` count, ``algebra.element.created``,
``contour.integrand_per_eval`` and ``operators.solves_per_eval``: the counts
a later change may cite as exact.  Exits 1 if any of them differ.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
EXACT = ("algebra.element.created", "contour.integrand_per_eval", "operators.solves_per_eval")


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k.endswith(".calls") or k in EXACT}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    mismatches = 0
    for workload in args.workloads:
        first, second = traced_counts(workload, args.seed), traced_counts(workload, args.seed)
        for name in sorted(first):
            same = first[name] == second[name]
            mismatches += not same
            print(f"{workload:>10}  {name:<40} {first[name]:>12g} {second[name]:>12g}"
                  f"  {'ok' if same else 'DIFFERS'}")
    print(f"counter self-test: {'passed' if mismatches == 0 else f'{mismatches} counts differ'}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
