#!/usr/bin/env python3
"""Run the independent verification battery and print a human-readable table.

Checks: agreement of the three energy routes (closed form, derived state,
termination-condition scan), series termination, finite-difference residuals
of both radial solutions, sign change at r_o, shooting-vs-Wronskian profile
deviation, and trajectory-surface detection.  Exit status 0 if every check
passes, 1 otherwise.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vwave.verify import SUITE_N_MAX, run_suite


def run(z: int, n_max: int) -> int:
    t0 = time.perf_counter()
    report = run_suite(z, n_max)
    elapsed = time.perf_counter() - t0
    width = max(len(c["name"]) for c in report["checks"])
    for c in report["checks"]:
        tag = "PASS" if c["passed"] else "FAIL"
        print(f"[{tag}] {c['name']:<{width}}  value={c['value']:.3e}  "
              f"threshold={c['threshold']:.1e}")
    n_pass = sum(c["passed"] for c in report["checks"])
    print(f"{n_pass}/{len(report['checks'])} checks passed in {elapsed:.1f}s "
          f"(z={z}, n_max={n_max})")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--z", type=int, default=1)
    ap.add_argument("--n-max", type=int, default=3, choices=range(1, SUITE_N_MAX + 1))
    args = ap.parse_args()
    sys.exit(run(args.z, args.n_max))
