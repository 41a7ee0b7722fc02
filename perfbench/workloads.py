"""The four benchmark workloads.

Each workload turns a seed into a fixed schedule of operations, grouped in
rounds.  A round always holds the same operations in the same proportions,
so the share of failed operations is the same in every run whatever the
seed and the run length.  ``setup`` does everything a run needs before its
first timed operation; ``round`` runs one round and returns one ``Op`` per
operation; ``check`` compares an operation's output with the oracles.
The oracles are imported only when checking, so set-up time leaves out
mpmath and the oracle integrations.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from calibration import calibrate, speed_factor


@dataclass
class Op:
    label: object
    seconds: float
    work: int
    output: object = None
    # a named program fault makes this operation fail on every seed
    expected_fault: bool = False
    # the operation's u_- deviation counts toward u_minus_digits (n <= 5)
    digits: bool = False
    error: str | None = None
    # machine-speed factor around the operation (see calibration.py)
    factor: float | None = None


def _timed(label, fn, **flags) -> Op:
    t0 = time.perf_counter()
    try:
        out, work = fn()
        error = None
    except Exception as exc:  # the operation failed; the run goes on and counts it
        out, work, error = None, 0, f"{type(exc).__name__}: {exc}"
    return Op(label, time.perf_counter() - t0, work, out, error=error, **flags)


def _bound_wave_output(wave) -> dict:
    return {
        "r": wave.grid.samples, "u_plus": wave.u_plus_vals, "u_minus": wave.u_minus,
        "left": wave.left_limit_at_ro, "right": wave.right_limit_at_ro,
    }


def _check_bound_wave(o, z: int, n: int, report=None):
    import oracles

    v = oracles.check_wave(z, n, o["r"], o["u_plus"], o["u_minus"], o["left"], o["right"])
    if report is not None:
        v.merge(oracles.check_nodes(z, n, [nd.radius for nd in report.nodes],
                                    [nd.kind.value for nd in report.nodes], float(o["r"][0])))
    return v


class Workload:
    name = ""
    item = ""  # what work_per_s counts

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.rng = random.Random(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op):
        raise NotImplementedError

    def final_check(self):
        """Checks on outputs made outside the timed operations, or None."""
        return None

    def install_tracing(self, tracer) -> None:
        tracer.install()

    def close(self) -> None:
        """Remove whatever the workload wrote while it ran."""


# -- state_sweep ----------------------------------------------------------------


class StateSweep(Workload):
    """build_series -> make_radial_grid -> sample_wave -> find_nodes per state.

    A cycle of three rounds visits each (Z, n), Z in 1..6 and n in 1..10,
    once.  That is 60 states, more than the program's 32-entry evaluator
    cache, so every state pays an evaluator build.  Each round holds every
    n twice, once with 1000 and once with 4000 samples, so every round does
    the same work.  For n <= 5 the seed picks Z and the order; the n >= 6
    states, which fail on named faults, have seed-independent inputs.
    """

    name = "state_sweep"
    item = "grid points"

    def setup(self) -> None:
        from vwave import nodes, series, units, wronskian

        self.series, self.units, self.wronskian, self.nodes = series, units, wronskian, nodes
        rounds = [[] for _ in range(3)]
        for n in range(1, 6):
            zs = self.rng.sample(range(1, 7), 6)
            for j in range(3):
                pair = [(zs[2 * j], 1000), (zs[2 * j + 1], 4000)]
                rounds[j] += [(z, n, s) for z, s in pair]
        for n in range(6, 11):
            for j in range(3):
                rounds[j] += [(2 * j + 1, n, 1000), (2 * j + 2, n, 4000)]
        for r in rounds:
            self.rng.shuffle(r)
        self.schedule = rounds
        self.next_round = 0

    def _state(self, z: int, n: int, samples: int):
        sol = self.series.build_series(self.units.AtomSpec(z, n))
        grid = self.wronskian.make_radial_grid(sol, samples=samples)
        wave = self.wronskian.sample_wave(sol, grid)
        report = self.nodes.find_nodes(wave)
        return (_bound_wave_output(wave), report), len(grid.samples)

    def round(self) -> list[Op]:
        states = self.schedule[self.next_round % 3]
        self.next_round += 1
        return [
            _timed((z, n, s), lambda z=z, n=n, s=s: self._state(z, n, s),
                   expected_fault=n >= 6, digits=n <= 5)
            for z, n, s in states
        ]

    def check(self, op: Op):
        z, n, _ = op.label
        wave, report = op.output
        return _check_bound_wave(wave, z, n, report)


# -- superpose_tracking -----------------------------------------------------------


class SuperposeTracking(Workload):
    """Node tracking of fixed superpositions over many time slices.

    The waves are sampled during set-up, so the timed loop builds no
    evaluator and computes no u_-: it is interpolation (BoundWave.r_of) and
    bisection through scalar superpose calls.  The seed picks Z and, every
    round afresh, where each superposition's window of time slices starts.
    """

    name = "superpose_tracking"
    item = "time slices"
    # (states, weights)
    COMBOS = (((1, 2), (1.0, 1.0)), ((2, 3), (1.0, -0.7)),
              ((1, 2, 3), (1.0, 1.0, 1.0)), ((2, 3, 5), (1.0, 0.5, -0.8)))
    SLICES = 64

    def setup(self) -> None:
        from vwave import nodes, series, units, wronskian

        self.nodes = nodes
        self.z = self.rng.randint(1, 6)
        self.waves = {}
        for n in sorted({n for c, _ in self.COMBOS for n in c}):
            sol = series.build_series(units.AtomSpec(self.z, n))
            self.waves[n] = wronskian.sample_wave(sol, wronskian.make_radial_grid(sol))

    def _job(self, combo, weights):
        period = 2.0 * math.pi / min(self.waves[n].state.omega for n in combo)
        t0 = self.rng.uniform(0.0, period)
        return combo, list(weights), list(np.linspace(t0, t0 + period, self.SLICES))

    def _track(self, combo, weights, times):
        waves = [self.waves[n] for n in combo]
        grid = self.nodes.common_tracking_grid(waves)
        tracks = self.nodes.track_superposition_nodes(waves, weights, times, grid)
        return (grid.samples, tracks), len(times)

    def round(self) -> list[Op]:
        jobs = [self._job(*combo) for combo in self.COMBOS]
        return [_timed(job, lambda job=job: self._track(*job)) for job in jobs]

    def check(self, op: Op):
        import oracles

        combo, weights, times = op.label
        rs, tracks = op.output
        return oracles.check_superposition(
            self.z, combo, weights, rs, times,
            [sl.radii for sl in tracks.slices], [sl.degenerate for sl in tracks.slices])

    def final_check(self):
        import oracles

        v = oracles.Verdict()
        for n, wave in self.waves.items():
            v.merge(_check_bound_wave(_bound_wave_output(wave), self.z, n))
        return v


# -- verify_battery ---------------------------------------------------------------


class VerifyBattery(Workload):
    """run_suite(Z, 3) for seeded Z values, one call per round."""

    name = "verify_battery"
    item = "run_suite calls"
    N_MAX = 3

    def setup(self) -> None:
        from vwave import verify

        self.verify = verify
        self.zs = self.rng.sample(range(1, 7), 6)
        self.calls = 0

    def round(self) -> list[Op]:
        z = self.zs[self.calls % len(self.zs)]
        self.calls += 1
        return [_timed(z, lambda: (self.verify.run_suite(z, self.N_MAX), 1))]

    def check(self, op: Op):
        import oracles

        v = oracles.Verdict()
        report = op.output
        _schema_errors(v, "verify", report)
        want = {"energy_route_agreement", "series_termination"}
        for n in range(1, self.N_MAX + 1):
            want |= {f"{c}_n{n}" for c in ("u_plus_residual", "u_minus_residual",
                                           "sign_change_at_ro", "shooting_vs_wronskian",
                                           "trajectory_surface")}
        names = {c["name"] for c in report["checks"]}
        v.require(names == want, f"check names {sorted(names ^ want)} differ")
        v.require(report["z"] == op.label and report["n_max"] == self.N_MAX, "report header")
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        v.require(report["passed"] and not failed, f"suite checks failed: {failed}")
        return v

    def final_check(self):
        """The suite's own u_- (its cached evaluators) against the oracles."""
        from vwave import nodes, series, units, wronskian

        v = None
        for z in sorted(set(self.zs[: min(self.calls, len(self.zs))])):
            for n in range(1, self.N_MAX + 1):
                sol = series.build_series(units.AtomSpec(z, n))
                wave = wronskian.sample_wave(sol, wronskian.make_radial_grid(sol))
                w = _check_bound_wave(_bound_wave_output(wave), z, n, nodes.find_nodes(wave))
                v = w if v is None else v.merge(w)
        return v


# -- cli_session ------------------------------------------------------------------

# What the installed ``vwave`` console script runs.
CLI_ENTRY = "import sys; from vwave.cli import main; sys.exit(main())"
CLI_DEFAULT_SAMPLES = 1000
CLI_DEFAULT_T_SAMPLES = 16


class CliSession(Workload):
    """A closed loop with one client running a fixed seeded script of vwave calls.

    Every round runs the same script: state, free, wave, nodes and superpose
    in JSON and in CSV, and figures.  Calls run one at a time.
    """

    name = "cli_session"
    item = "vwave calls"

    def setup(self) -> None:
        rng = self.rng
        self.work = self.root / ".perfbench_out" / f"cli-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        z = lambda: str(rng.randint(1, 6))  # noqa: E731
        # wave always covers n = 5, so the worst u_- deviation is seed-independent
        n_wave = rng.sample([2, 5], 2) + rng.sample([3, 4], 2)
        combos = [(1, 3), (2, 4, 5)]
        rng.shuffle(combos)
        script = []
        for fmt in ("json", "csv"):
            script.append(["state", "--z", z(), "--n", str(rng.randint(1, 5)), "--format", fmt])
        for fmt in ("json", "csv"):
            script.append(["free", "--v", f"{rng.uniform(0.2, 3.0):.4f}",
                           "--mass", f"{rng.uniform(0.5, 2.0):.4f}",
                           "--branches", str(rng.randint(3, 8)),
                           "--t", f"{rng.uniform(0.0, 5.0):.4f}", "--format", fmt])
        for cmd, ns in (("wave", n_wave[:2]), ("nodes", n_wave[2:])):
            for fmt, n in zip(("json", "csv"), ns):
                script.append([cmd, "--z", z(), "--n", str(n), "--format", fmt])
        for fmt, combo in zip(("json", "csv"), combos):
            weights = [f"{rng.choice((-1, 1)) * rng.uniform(0.5, 1.5):.3f}" for _ in combo]
            script.append(["superpose", "--z", z(), "--states", ",".join(map(str, combo)),
                           "--weights=" + ",".join(weights), "--format", fmt])
        script.append(["figures", "--z", z(), "--out-dir", str(self.work / "figures")])
        self.script = script
        self.tracer_dir = None

    def close(self) -> None:
        if hasattr(self, "work"):
            shutil.rmtree(self.work, ignore_errors=True)

    def install_tracing(self, tracer) -> None:
        # spans come from the traced child processes, not from this one
        self.tracer_dir = self.work / "spans"
        self.tracer_dir.mkdir(parents=True, exist_ok=True)
        self.child_spans = []
        self.startup = []

    def _call(self, argv: list[str]) -> Op:
        stdout_path = self.work / "stdout"
        if self.tracer_dir is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
        else:
            spans = self.tracer_dir / f"{len(self.child_spans)}.npz"
            cmd = [sys.executable, str(Path(__file__).with_name("cli_shim.py")),
                   str(spans), *argv]
        before = calibrate()
        with open(stdout_path, "wb") as out, open(self.work / "stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            code = proc.wait()
            wall = time.perf_counter() - t0
        factor = speed_factor(before, calibrate())
        output = {"code": code, "stdout": stdout_path.read_text(encoding="utf-8")}
        if code != 0:
            output["stderr"] = (self.work / "stderr").read_text(encoding="utf-8")
        if argv[0] == "figures":
            output["files"] = {
                n: (self.work / "figures" / f"figure_n{n}.csv").read_text(encoding="utf-8")
                for n in (1, 2, 3)
            }
        if self.tracer_dir is not None:
            import tracing

            part = tracing.load(spans)
            main = part["name_id"] == list(part["names"]).index("cli.main")
            self.startup.append(wall - float(np.sum((part["end"] - part["start"])[main])))
            self.child_spans.append(part)
        return Op(tuple(argv), wall, 1, output, digits=argv[0] == "wave", factor=factor)

    def round(self) -> list[Op]:
        return [self._call(argv) for argv in self.script]

    def check(self, op: Op):
        import oracles

        v = oracles.Verdict()
        out = op.output
        if out["code"] != 0:
            v.require(False, f"exit {out['code']}: {out.get('stderr', '')[-300:]}")
            return v
        argv = list(op.label)
        opts = dict(a.split("=", 1) if "=" in a else (a, b) for a, b in _flag_pairs(argv[1:]))
        fmt = opts.get("--format", "json")
        cmd = argv[0]
        z = int(opts["--z"]) if "--z" in opts else None
        if cmd == "figures":
            return _check_figures(v, z, out["files"])
        text = out["stdout"]
        if fmt == "json":
            payload = json.loads(text)
            _schema_errors(v, cmd, payload)
            return CHECKS[cmd](v, opts, payload=payload)
        rows = list(csv.reader(io.StringIO(text)))
        return CHECKS[cmd](v, opts, rows=rows)


def _flag_pairs(args):
    """(flag, value) pairs of an argv written as '--flag value' or '--flag=value'."""
    it = iter(args)
    for a in it:
        yield (a, None) if "=" in a else (a, next(it))


def _schema_errors(v, name: str, payload) -> None:
    """Validate a JSON payload against the program's own published schema."""
    import jsonschema
    from referencing import Registry, Resource

    global _REGISTRY
    schema_dir = Path(__file__).resolve().parent.parent / "src" / "vwave" / "schemas"
    if _REGISTRY is None:
        store = {}
        for f in sorted(schema_dir.glob("*.json")):
            sch = json.loads(f.read_text(encoding="utf-8"))
            store[sch["$id"]] = sch
        _REGISTRY = (store, Registry().with_resources(
            (uid, Resource.from_contents(s)) for uid, s in store.items()))
    store, registry = _REGISTRY
    validator = jsonschema.Draft202012Validator(store[f"vwave/{name}.json"], registry=registry)
    errors = [e.message for e in validator.iter_errors(payload)]
    v.require(not errors, f"{name} schema: {errors[:2]}")


_REGISTRY = None


def _table(rows):
    header, body = rows[0], rows[1:]
    return {h: [r[i] for r in body] for i, h in enumerate(header)}


def _check_state(v, opts, payload=None, rows=None):
    import oracles

    z, n = int(opts["--z"]), int(opts["--n"])
    if payload is None:
        t = _table(rows)
        v.require(t["z"] == [str(z)] and t["n"] == [str(n)], "state csv atom")
        payload = {k: float(c[0]) for k, c in t.items() if k not in ("z", "n")}
    else:
        v.require(payload["atom"] == {"z": z, "n": n}, "state atom")
    return v.merge(oracles.check_state(
        z, n, payload["energy_hartree"], payload["radius_bohr"], payload["wavenumber"],
        payload["omega"], payload["bohr_ratio"]))


def _check_free(v, opts, payload=None, rows=None):
    import oracles

    vel, mass, t = float(opts["--v"]), float(opts["--mass"]), float(opts["--t"])
    branches = int(opts["--branches"])
    if payload is None:
        tab = _table(rows)
        v.require(tab["branch"] == [str(b) for b in range(branches)], "free csv branches")
        positions = [float(x) for x in tab["x_node"]]
        wavelength = 2.0 * math.pi / (mass * abs(vel))  # not in the CSV
    else:
        positions, wavelength = payload["node_positions"], payload["wavelength"]
        v.require(len(positions) == branches, "free branch count")
    return v.merge(oracles.check_free(vel, mass, t, wavelength, positions))


def _check_wave(v, opts, payload=None, rows=None):
    import oracles

    z, n = int(opts["--z"]), int(opts["--n"])
    if payload is None:
        tab = {k: np.array(c, dtype=float) for k, c in _table(rows).items()}
        left = right = None
    else:
        v.require(payload["atom"] == {"z": z, "n": n}, "wave atom")
        tab = {k: np.array([s[k] for s in payload["samples"]]) for k in payload["samples"][0]}
        left, right = payload["left_limit_at_ro"], payload["right_limit_at_ro"]
        st = payload["state"]
        v.merge(oracles.check_state(z, n, st["energy_hartree"], st["radius_bohr"],
                                    st["wavenumber"], st["omega"], st["bohr_ratio"]))
    r_o = oracles.state(z, n)["r_o"]
    v.require(len(tab["r"]) >= 0.99 * CLI_DEFAULT_SAMPLES, "wave sample count")
    v.record("r_over_ro_dev", float(np.max(np.abs(tab["r_over_ro"] * r_o - tab["r"]) / tab["r"])), 1e-14)
    v.record("R_dev", float(np.max(np.abs(tab["R"] * tab["r"] - tab["u_minus"])
                                  / np.maximum(np.abs(tab["u_minus"]), 1e-300))), 1e-14)
    return v.merge(oracles.check_wave(z, n, tab["r"], tab["u_plus"], tab["u_minus"], left, right))


def _check_nodes(v, opts, payload=None, rows=None):
    import oracles

    z, n = int(opts["--z"]), int(opts["--n"])
    if payload is None:
        tab = _table(rows)
        radii = [float(x) for x in tab["radius_bohr"]]
        kinds = tab["kind"]
    else:
        v.require(payload["atom"] == {"z": z, "n": n}, "nodes atom")
        radii = [nd["radius_bohr"] for nd in payload["nodes"]]
        kinds = [nd["kind"] for nd in payload["nodes"]]
    r_min = 3.0 * oracles.state(z, n)["r_o"] / CLI_DEFAULT_SAMPLES
    return v.merge(oracles.check_nodes(z, n, radii, kinds, r_min))


def tracking_grid(z: int, states, samples: int = CLI_DEFAULT_SAMPLES,
                  r_max: float = 3.0, exclusion: float = 1e-3):
    """The CLI's node-tracking grid, rebuilt from its documented definition.

    Each state is sampled uniformly on (0, r_max*r_o] minus 'exclusion*r_o'
    neighborhoods of r_o and of the zeros of u_+ (from the Laguerre roots).
    The tracking grid is uniform on the span all states share, minus the gaps
    every state leaves around those neighborhoods.
    """
    import oracles

    firsts, lasts, gaps = [], [], []
    for n in states:
        r_o = oracles.state(z, n)["r_o"]
        raw = np.linspace(r_max * r_o / samples, r_max * r_o, samples)
        centers = sorted(oracles.u_plus_zeros(z, n) + [r_o])
        keep = np.ones(len(raw), dtype=bool)
        for c in centers:
            keep &= ~((raw > c - exclusion * r_o) & (raw < c + exclusion * r_o))
        kept = raw[keep]
        firsts.append(kept[0])
        lasts.append(kept[-1])
        gaps += [(kept[kept < c][-1], kept[kept > c][0]) for c in centers]
    rs = np.linspace(max(firsts), min(lasts), samples)
    keep = np.ones(len(rs), dtype=bool)
    for lo, hi in gaps:
        keep &= ~((rs > lo) & (rs < hi))
    return rs[keep], min(lasts)


def _check_superpose(v, opts, payload=None, rows=None):
    import oracles

    z = int(opts["--z"])
    states = [int(s) for s in opts["--states"].split(",")]
    weights = [float(w) for w in opts["--weights"].split(",")]
    period = 2.0 * math.pi / min(oracles.state(z, n)["omega"] for n in states)
    times = np.linspace(0.0, period, CLI_DEFAULT_T_SAMPLES)
    rs, r_max = tracking_grid(z, states)
    if payload is None:
        radii = [[] for _ in times]
        tab = _table(rows)
        for sl, t, r in zip(tab["slice"], tab["t"], tab["radius_bohr"]):
            radii[int(sl)].append(float(r))
            v.record("t_dev", abs(float(t) - times[int(sl)]) / period, 1e-14)
        degenerate = None
    else:
        v.require(payload["states"] == states and payload["atom_z"] == z, "superpose header")
        v.require(len(payload["slices"]) == len(times), "slice count")
        v.record("r_max_dev", abs(payload["common_r_max"] - r_max) / r_max, 1e-12)
        radii = [sl["radii"] for sl in payload["slices"]]
        degenerate = [sl["degenerate"] for sl in payload["slices"]]
        for sl, t in zip(payload["slices"], times):
            v.record("t_dev", abs(sl["t"] - t) / period, 1e-14)
    return v.merge(oracles.check_superposition(z, states, weights, rs, times, radii, degenerate))


def _check_figures(v, z: int, files: dict):
    import oracles

    for n, text in files.items():
        tab = {k: np.array(c, dtype=float) for k, c in _table(list(csv.reader(io.StringIO(text)))).items()}
        rho, got = tab["r_over_ro"], tab["R_normalized"]
        v.record("figure_max_dev", abs(float(np.max(np.abs(got))) - 1.0), 1e-15)
        r_o = oracles.state(z, n)["r_o"]
        want = oracles.radial_profile(z, n, rho * r_o)
        want = want / float(np.max(np.abs(want)))
        v.record("figure_R_dev", float(np.max(np.abs(got - want))), oracles.U_MINUS_RTOL)
    return v


CHECKS = {
    "state": _check_state,
    "free": _check_free,
    "wave": _check_wave,
    "nodes": _check_nodes,
    "superpose": _check_superpose,
}

WORKLOADS = {w.name: w for w in (CliSession, StateSweep, SuperposeTracking, VerifyBattery)}
