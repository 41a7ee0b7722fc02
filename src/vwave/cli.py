"""Command-line front end.

Subcommands: state, free, wave, nodes, superpose, verify, figures.  Output is
deterministic (sorted JSON keys, 17-significant-digit floats, LF endings);
flags override values from an optional key=value config file.

Thread policy: `main` sets OPENBLAS_NUM_THREADS=1 before a subcommand loads
numpy, unless the variable is already set or numpy is already loaded, so a
`vwave` process runs OpenBLAS with no worker thread.  vwave's linear algebra
is tiny (tridiagonal eigh of order n - 1, 32 and 40, and matrix-vector products
of at most 1024 x 40), and a worker only costs: it spins after start-up and
after each threaded call, taking CPU time from the main thread.
`OPENBLAS_NUM_THREADS=N vwave ...` overrides it.  Importing `vwave` or
`vwave.cli` changes nothing.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .output import dumps_json, render_csv
from .units import AtomSpec, bohr_ratio, derive_state


def _number(kind: type, least: float = -math.inf) -> Callable[[str], float]:
    """Converter for a numeric flag or config value: finite and at least ``least``."""
    need = f"a finite {kind.__name__}" + ("" if least == -math.inf else f" >= {least}")

    def convert(text: str):
        try:
            val = kind(text)
        except ValueError:
            val = math.nan
        if not (abs(val) < math.inf and val >= least):
            raise argparse.ArgumentTypeError(f"expected {need}, got {text!r}")
        return val

    return convert


def _list_of(item: Callable[[str], float]) -> Callable[[str], list]:
    return lambda text: [item(part) for part in text.split(",")]


def _one_of(*choices: str) -> Callable[[str], str]:
    """Converter for a flag or config value that must be one of ``choices``."""

    def convert(text: str) -> str:
        if text not in choices:
            raise argparse.ArgumentTypeError(f"expected one of {', '.join(choices)}, got {text!r}")
        return text

    return convert


class _Option(NamedTuple):
    type: Callable[[str], object]
    default: str | None  # as typed on the command line; help explains a None
    help: str


# Every option, declared once.  Flags, config values and defaults all pass
# through its type, so they share its checks.
_OPTIONS = {
    "z": _Option(_number(int), "1", "nuclear charge Z"),
    "n": _Option(_number(int), "1", "principal quantum number"),
    "n_max": _Option(_number(int), "3", "largest n to check, 1 to 3"),
    "v": _Option(_number(float), "1.0", "velocity"),
    "mass": _Option(_number(float), "1.0", "particle mass"),
    "branches": _Option(_number(int, 1), "6", "number of moving nodes"),
    "t": _Option(_number(float), "0.0", "time of the node positions"),
    "states": _Option(_list_of(_number(int)), "1,2", "comma-separated n values"),
    "weights": _Option(_list_of(_number(float)), None,
                       "comma-separated weights (default: 1 for each state)"),
    "t_max": _Option(_number(float), None, "end time (default: period of the slowest state)"),
    "t_samples": _Option(_number(int), "16", "number of time slices"),
    "r_max": _Option(_number(float), "3.0", "grid extent in units of r_o"),
    "samples": _Option(_number(int), "1000", "number of radial grid points"),
    "normalize": _Option(_one_of("on", "off"), "off", "scale R to max |R| = 1: on or off"),
    "config": _Option(Path, None, "key=value config file"),
    "format": _Option(_one_of("csv", "json"), "json", "output format: csv or json"),
    "out": _Option(Path, None, "output path (default: stdout)"),
    "out_dir": _Option(Path, ".", "directory for figure_n{1,2,3}.csv"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vwave")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in _SUBCOMMANDS.items():
        # no abbreviations, or figures would take --out for --out-dir
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for key in keys:
            opt = _OPTIONS[key]
            text = opt.help if opt.default is None else f"{opt.help} (default: {opt.default})"
            p.add_argument("--" + key.replace("_", "-"), type=opt.type, help=text)
    return parser


def read_config(path: Path) -> dict:
    """Parse a UTF-8 key=value file with '#' comments.

    Keys are the long flag names of any subcommand (dashes or underscores),
    so one file can serve every subcommand.  An unknown key, or a value its
    option's type refuses, raises ValueError naming the key.
    """
    cfg = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _OPTIONS or key == "config":
            raise ValueError(f"unknown config key {key!r} in {path}")
        try:
            cfg[key] = _OPTIONS[key].type(val)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    return cfg


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and flags (flags win)."""
    opts = {key: None if opt.default is None else opt.type(opt.default)
            for key, opt in _OPTIONS.items()}
    if args.config is not None:
        opts.update(read_config(args.config))
    opts.update((key, val) for key, val in vars(args).items() if val is not None)
    return opts


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_bytes(text.encode("utf-8"))


def _state_payload(z: int, n: int) -> dict:
    atom = AtomSpec(z, n)
    st = derive_state(atom)
    return {
        "atom": {"n": n, "z": z},
        "energy_hartree": st.energy,
        "radius_bohr": st.r_o,
        "wavenumber": st.k_o,
        "omega": st.omega,
        "beta0_sq": st.beta0_sq,
        "alpha": st.alpha,
        "beta1": st.beta1,
        "bohr_ratio": bohr_ratio(st, atom),
    }


def cmd_state(opts: dict) -> tuple[dict, list, list]:
    payload = _state_payload(opts["z"], opts["n"])
    keys = [k for k in sorted(payload) if k != "atom"]
    return payload, ["z", "n", *keys], [[opts["z"], opts["n"], *(payload[k] for k in keys)]]


def cmd_free(opts: dict) -> tuple[dict, list, list]:
    from . import free_motion

    p = free_motion.free_params(opts["v"], opts["mass"])
    node_xs = [free_motion.node_trajectory(p, b, opts["t"]) for b in range(opts["branches"])]
    payload = {
        "amplitude": p.amplitude,
        "energy": p.energy,
        "k1": p.k1,
        "k2": p.k2,
        "mass": p.m,
        "node_positions": node_xs,
        "omega": p.omega,
        "t": opts["t"],
        "v": p.v,
        "wavelength": p.wavelength,
    }
    return payload, ["branch", "x_node"], [[b, x] for b, x in enumerate(node_xs)]


def _build_wave(opts: dict, n: int | None = None):
    from .series import build_series
    from .wronskian import make_radial_grid, sample_wave

    if opts["samples"] < 200:
        raise ValueError("need at least 200 samples for wave/nodes/figures output")
    if opts["r_max"] < 1.5:
        raise ValueError("r-max must be at least 1.5 (units of r_o)")
    atom = AtomSpec(opts["z"], opts["n"] if n is None else n)
    sol = build_series(atom)
    grid = make_radial_grid(sol, r_max_factor=opts["r_max"], samples=opts["samples"])
    return sample_wave(sol, grid)


def _wave_rows(wave, normalize: bool):
    scale = float(abs(wave.r_vals).max()) if normalize else 1.0
    r_o = wave.state.r_o
    return [
        [float(r), float(r / r_o), float(up), float(um), float(rv / scale)]
        for r, up, um, rv in zip(
            wave.grid.samples, wave.u_plus_vals, wave.u_minus, wave.r_vals
        )
    ]


def cmd_wave(opts: dict) -> tuple[dict, list, list]:
    wave = _build_wave(opts)
    header = ["r", "r_over_ro", "u_plus", "u_minus", "R"]
    rows = _wave_rows(wave, opts["normalize"] == "on")
    payload = {
        "atom": {"n": wave.atom.n, "z": wave.atom.z},
        "left_limit_at_ro": wave.left_limit_at_ro,
        "right_limit_at_ro": wave.right_limit_at_ro,
        "samples": [dict(zip(header, row)) for row in rows],
        "state": _state_payload(wave.atom.z, wave.atom.n),
    }
    return payload, header, rows


def cmd_nodes(opts: dict) -> tuple[dict, list, list]:
    from . import nodes

    wave = _build_wave(opts)
    r_o = wave.state.r_o
    header = ["radius_bohr", "radius_over_ro", "kind", "left_slope_sign",
              "right_slope_sign", "value_left", "value_right", "discontinuous"]
    rows = [
        [nd.radius, nd.radius / r_o, nd.kind.value, nd.left_slope_sign,
         nd.right_slope_sign, nd.value_left, nd.value_right, nd.discontinuous]
        for nd in nodes.find_nodes(wave).nodes
    ]
    entries = [dict(zip(header, row)) for row in rows]
    return {"atom": {"n": wave.atom.n, "z": wave.atom.z}, "nodes": entries}, header, rows


def cmd_superpose(opts: dict) -> tuple[dict, list, list]:
    import numpy as np

    from . import nodes

    weights = opts["weights"] or [1.0] * len(opts["states"])
    if len(weights) != len(opts["states"]):
        raise ValueError(f"{len(weights)} weights given for {len(opts['states'])} states")
    waves = [_build_wave(opts, n=n) for n in opts["states"]]
    t_max = opts["t_max"]
    if t_max is None:
        t_max = 2.0 * np.pi / min(w.state.omega for w in waves)
    times = list(np.linspace(0.0, t_max, opts["t_samples"]))
    # nodes are tracked on the common radial domain of all states, avoiding
    # every state's excluded neighborhoods
    track_grid = nodes.common_tracking_grid(waves, samples=opts["samples"])
    tracked = nodes.track_superposition_nodes(waves, weights, times, track_grid)
    payload = {
        "atom_z": opts["z"],
        # the shared span's end: the grid's last point falls short of it where
        # that end lies in another state's gap (--states 1,2 --r-max 4)
        "common_r_max": min(float(w.grid.samples[-1]) for w in waves),
        "slices": [
            {"degenerate": sl.degenerate, "radii": list(sl.radii), "t": sl.t}
            for sl in tracked.slices
        ],
        "states": opts["states"],
        "tracks": [[{"r": r, "t": t} for t, r in tr] for tr in tracked.tracks],
        "weights": weights,
    }
    rows = [[i, sl.t, r] for i, sl in enumerate(tracked.slices) for r in sl.radii]
    return payload, ["slice", "t", "radius_bohr"], rows


def cmd_verify(opts: dict) -> int:
    from . import verify

    report = verify.run_suite(opts["z"], opts["n_max"])
    _emit(dumps_json(report), opts["out"])
    return 0 if report["passed"] else 1


def cmd_figures(opts: dict) -> int:
    opts["out_dir"].mkdir(parents=True, exist_ok=True)
    for n in (1, 2, 3):
        rows = [[row[1], row[4]] for row in _wave_rows(_build_wave(opts, n=n), True)]
        text = render_csv(["r_over_ro", "R_normalized"], rows)
        (opts["out_dir"] / f"figure_n{n}.csv").write_bytes(text.encode("utf-8"))
    return 0


# name: (command, help, the options it reads in --help order).  A command that
# reads --format returns (payload, csv_header, csv_rows) for main to write;
# the others write their own output and return the exit code.  Each command
# imports the modules it runs on its first lines, so a call loads only its own
# chain: state and free start without numpy, and no command loads scipy.
_SUBCOMMANDS = {
    "state": (cmd_state, "derived scalar parameters of a bound state",
              ("z", "n", "config", "format", "out")),
    "free": (cmd_free, "uniform-motion wave/trajectory parameters",
             ("v", "mass", "branches", "t", "config", "format", "out")),
    "wave": (cmd_wave, "sampled bound wave (u_+, u_-, R)",
             ("z", "n", "r_max", "samples", "normalize", "config", "format", "out")),
    "nodes": (cmd_nodes, "node detection and classification",
              ("z", "n", "r_max", "samples", "config", "format", "out")),
    "superpose": (cmd_superpose, "node tracking for a superposition",
                  ("z", "states", "weights", "t_max", "t_samples", "r_max", "samples",
                   "config", "format", "out")),
    "verify": (cmd_verify, "independent verification battery (JSON only)",
               ("z", "n_max", "config", "out")),
    "figures": (cmd_figures, "R(r/r_o) curve data for n = 1, 2, 3",
                ("z", "out_dir", "r_max", "samples", "config")),
}


def main(argv: list[str] | None = None) -> int:
    if "numpy" not in sys.modules:  # OpenBLAS reads it once, when numpy loads
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    run, _, keys = _SUBCOMMANDS[args.command]
    try:
        opts = resolve_options(args)
        if "format" not in keys:
            return run(opts)
        payload, header, rows = run(opts)
        text = render_csv(header, rows) if opts["format"] == "csv" else dumps_json(payload)
        _emit(text, opts["out"])
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
