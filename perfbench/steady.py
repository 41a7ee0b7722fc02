"""Steadiness check: repeat workloads over seeds and show each metric's spread.

Usage (from the repository root):

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1,2,...] [--seconds S] [--trace 0|1]

Runs ``perfbench/run.py`` once per workload and seed, one run at a time,
and prints for every metric the median and the first and third quartiles
(``statistics.quantiles(values, n=4)``) across the runs.  For end-to-end
metrics it also prints the spread, (q3 - q1) / median, next to the metric's
bound from BENCHMARK.json and flags spreads above a third of the bound.  It
reports the share of failed operations per run, which must not vary.  Raw
results go to ``.perfbench_out/steady-<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]

    results = {}
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                print(f"{wl} seed {seed}: exit {proc.returncode}")
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"], res["wall_s"] = seed, wall
            runs.append(res)
            print(f"{wl} seed {seed}: {wall:.1f} s, correct {res['correct']}, "
                  f"attempted {res['attempted']}, failed {res['failed']}", flush=True)
        results[wl] = runs

    out = ROOT / ".perfbench_out" / f"steady-{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1), encoding="utf-8")

    steady = True
    for wl, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        walls = [r["wall_s"] for r in runs]
        print(f"\n{wl}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"failed share {shares}, all correct {all(r['correct'] for r in runs)}")
        steady &= len(shares) == 1 and all(r["correct"] for r in runs)
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            line = f"  {name:<34} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} {unit}"
            if name in bounds and med:
                spread = (q3 - q1) / abs(med)
                flag = "" if spread <= bounds[name] / 3 else "  <-- above bound/3"
                if name == "setup_s":
                    flag = ""  # set-up time is compared by median, not by spread
                steady &= not flag
                line += f"  spread {spread:.4f} (bound {bounds[name]}){flag}"
            print(line)
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
