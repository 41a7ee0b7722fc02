"""vwave benchmark: one workload per invocation.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload until S seconds have passed, checks every
output against the oracles in ``oracles.py``, prints the metrics by name
with their units, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from a traced run, plus the tracing overhead.  Nothing is built: the
program is imported from ``src/``.

End-to-end times are calibrated: a fixed CPU kernel is timed before and
after every round (and around every set-up), and each time is scaled by
CALIBRATION_S over that kernel time, so it reads as seconds on the
reference machine at its quiet speed.  The raw wall-clock figures are
printed next to them.  Per-layer times are raw.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import CALIBRATION_S, calibrate, speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

# name -> (unit, better); every workload reports every one of them
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "op_s": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
    "u_minus_digits": ("digits", "higher"),
}

# name -> (unit, better); values are per traced round unless the unit says otherwise
PER_LAYER = {
    "series.u_plus.points": ("count", "lower"),
    "series.u_plus.s": ("s", "lower"),
    "series.interior_zeros.calls": ("count", "lower"),
    "series.interior_zeros.s": ("s", "lower"),
    "series.build_series.s": ("s", "lower"),
    "wronskian.evaluator_build.calls": ("count", "lower"),
    "wronskian.evaluator_build.s": ("s", "lower"),
    "wronskian.make_radial_grid.s": ("s", "lower"),
    "wronskian.u_minus.points": ("count", "lower"),
    "wronskian.u_minus.s": ("s", "lower"),
    "wronskian.limits_at_ro.s": ("s", "lower"),
    "wronskian.sample_wave.s": ("s", "lower"),
    "wronskian.r_of.calls": ("count", "lower"),
    "wronskian.r_of.s": ("s", "lower"),
    "wronskian.superpose.calls": ("count", "lower"),
    "wronskian.superpose.s": ("s", "lower"),
    "nodes.find_nodes.s": ("s", "lower"),
    "nodes.nodes_found": ("count", "higher"),
    "nodes.track_superposition_nodes.s": ("s", "lower"),
    "nodes.common_tracking_grid.s": ("s", "lower"),
    "verify.run_suite.s": ("s", "lower"),
    "verify.ode_residual.s": ("s", "lower"),
    "verify.u_minus_crossings.s": ("s", "lower"),
    "verify.shoot_inward.s": ("s", "lower"),
    "verify.shooting_deviation.s": ("s", "lower"),
    "verify.route_agreement.s": ("s", "lower"),
    "output.dumps_json.s": ("s", "lower"),
    "output.render_csv.s": ("s", "lower"),
    "output.bytes": ("bytes", "lower"),
    "cli.main.s": ("s", "lower"),
    "cli.startup_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# the end-to-end figures under the names the workloads are usually discussed by
ALIASES = {
    "cli_session": [("cli_call_s", "op_s", "s"), ("cli_session_s", "round_s", "s")],
    "state_sweep": [("wave_points_per_s", "work_per_s", "points/s")],
    "superpose_tracking": [("track_slices_per_s", "work_per_s", "slices/s")],
    "verify_battery": [("verify_suite_s", "op_s", "s")],
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="do the workload's set-up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Wall time from starting a fresh process to the end of the workload's set-up.

    Returns the times and the calibration speed factor around each one.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times, factors = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up run failed with exit code {proc.returncode}")
        times.append(elapsed)
        factors.append(speed_factor(before, calibrate()))
    return times, factors


def run_rounds(wl, seconds=None, rounds=None):
    """Whole rounds until ``seconds`` have passed, or exactly ``rounds`` rounds.

    Returns the operations, the wall time of each round and the speed
    factor of each round, from calibrations just before and just after it.
    An operation that did not calibrate itself gets its round's factor.
    """
    ops, walls, factors = [], [], []
    cal = calibrate()
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        new = wl.round()
        walls.append(time.perf_counter() - start)
        after = calibrate()
        factors.append(speed_factor(cal, after))
        cal = after
        for op in new:
            if op.factor is None:
                op.factor = factors[-1]
        ops += new
        elapsed = time.perf_counter() - t0
        if (rounds is not None and len(walls) >= rounds) or (rounds is None and elapsed >= seconds):
            return ops, walls, factors


def check_all(wl, ops):
    """Oracle verdict per operation; returns (failed flags, correct, worst u_- deviation)."""
    failed, unexpected, worst = [], [], 0.0
    for op in ops:
        if op.error is not None:
            ok, why, dev = False, [op.error], None
        else:
            try:
                v = wl.check(op)
                ok, why, dev = v.ok, v.failures, v.deviations.get("u_minus_dev")
            except Exception as exc:  # a malformed output is a failed operation
                ok, why, dev = False, [f"{type(exc).__name__}: {exc}"], None
        failed.append(not ok)
        if not ok and not op.expected_fault:
            unexpected.append((op.label, why))
        if op.digits and dev is not None:
            worst = max(worst, dev)
    final = wl.final_check()
    if final is not None:
        if not final.ok:
            unexpected.append(("outputs outside the timed loop", final.failures))
        worst = max(worst, final.deviations.get("u_minus_dev", 0.0))
    for label, why in unexpected[:5]:
        print(f"UNEXPECTED FAILURE {label!r}: {why[:3]}", file=sys.stderr)
    return failed, not unexpected, worst


def layer_metrics(spans, rounds: int, startup: list[float], overhead_pct: float) -> dict:
    import tracing

    summary = tracing.summarize(spans) if len(spans["start"]) else {}

    def get(span, field):
        return summary.get(span, {}).get(field, 0) / rounds

    out = {}
    for name in PER_LAYER:
        if name == "cli.startup_s":
            value = statistics.median(startup) if startup else 0.0
        elif name == "trace.overhead_pct":
            value = overhead_pct
        elif name == "nodes.nodes_found":
            value = get("nodes.find_nodes", "count")
        elif name == "output.bytes":
            value = get("output.dumps_json", "count") + get("output.render_csv", "count")
        else:
            span, _, field = name.rpartition(".")
            value = get(span, {"s": "self_s", "calls": "calls", "points": "count"}[field])
        out[name] = value
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "vwave" / "__init__.py").is_file():
        print(f"error: no vwave sources under {ROOT / 'src'}; run from a vwave checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    try:
        if args.setup_only:
            wl.setup()
            print("ready", flush=True)
            return 0
        return run(args, wl)
    finally:
        wl.close()


def run(args, wl) -> int:
    setup_times, setup_factors = ([], []) if args.trace else measure_setup(args)
    wl.setup()
    if not args.trace:
        ops, walls, factors = run_rounds(wl, seconds=args.seconds)
        peak_kb = resource.getrusage(
            resource.RUSAGE_CHILDREN if wl.name == "cli_session" else resource.RUSAGE_SELF
        ).ru_maxrss
    else:
        import tracing

        ops, walls, factors = run_rounds(wl, seconds=args.seconds / 2)
        tracer = tracing.Tracer()
        wl.install_tracing(tracer)
        traced_ops, traced_walls, traced_factors = run_rounds(wl, rounds=len(walls))
        # the first untraced round also pays one-time warm-up; leave it out
        untraced = [w * f for w, f in zip(walls, factors)]
        baseline = statistics.median(untraced[1:] or untraced)
        traced = statistics.median(w * f for w, f in zip(traced_walls, traced_factors))
        overhead_pct = 100.0 * (traced / baseline - 1.0)
        spans = (tracing.concat(wl.child_spans) if wl.name == "cli_session"
                 else tracer.arrays())
        tracing.save(ROOT / ".perfbench_out" / f"trace-{wl.name}-seed{args.seed}.npz", spans)
        metrics = layer_metrics(spans, len(traced_walls), getattr(wl, "startup", []), overhead_pct)
        ops += traced_ops

    failed, correct, worst = check_all(wl, ops)
    elapsed = sum(walls)
    print(f"workload {wl.name} seed {args.seed}: {len(walls)} rounds in {elapsed:.3f} s "
          f"(untraced), attempted {len(ops)}, failed {sum(failed)}")
    if not args.trace:
        work = sum(op.work for op in ops)
        calibrated = [op.seconds * op.factor for op in ops]

        def per_round(times, stat):
            # a round always holds the same operations, so round statistics compare
            k = len(ops) // len(walls)
            return statistics.median(stat(times[i:i + k]) for i in range(0, len(times), k))

        metrics = {
            "setup_s": statistics.median(t * f for t, f in zip(setup_times, setup_factors)),
            "peak_rss_mb": peak_kb / 1024.0,
            "op_s": per_round(calibrated, statistics.fmean),
            "work_per_s": work / sum(calibrated),
            "u_minus_digits": -math.log10(max(worst, 1e-17)),
        }
        raw = {
            "setup_s": statistics.median(setup_times),
            "op_s": per_round([op.seconds for op in ops], statistics.fmean),
            "work_per_s": work / sum(op.seconds for op in ops),
        }
        shown = dict(metrics, round_s=per_round(calibrated, sum))
        for name, value in metrics.items():
            extra = f"   (raw wall clock {raw[name]:.6g})" if name in raw else ""
            print(f"  {name:<34} {value:.6g} {END_TO_END[name][0]}{extra}")
        for alias, key, unit in ALIASES[wl.name]:
            print(f"  {alias:<34} {shown[key]:.6g} {unit}   (= {key}; {wl.item})")
        print(f"  machine speed factor               {statistics.median(factors):.4f} "
              f"(calibration {CALIBRATION_S} s / measured)")
        units = {k: u for k, (u, _) in END_TO_END.items()}
    else:
        for name, value in metrics.items():
            print(f"  {name:<34} {value:.6g} {PER_LAYER[name][0]}")
        units = {k: u for k, (u, _) in PER_LAYER.items()}
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
