"""Command-line front end.

Subcommands: state, free, wave, nodes, superpose, verify, figures.  Output is
deterministic (sorted JSON keys, 17-significant-digit floats, LF endings);
flags override values from an optional key=value config file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import free_motion, nodes as nodes_mod, verify as verify_mod
from .output import dumps_json, render_csv
from .series import build_series
from .units import AtomSpec, bohr_ratio, derive_state
from .wronskian import make_radial_grid, sample_wave


# allowed values of the options that take one of a fixed set, for flags and
# config files alike
_CHOICES = {"format": ("csv", "json"), "normalize": ("on", "off")}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None, help="key=value config file")
    p.add_argument("--format", choices=_CHOICES["format"], default=None)
    p.add_argument("--out", type=Path, default=None, help="output path (default stdout)")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r-max", type=float, default=None, help="grid extent in units of r_o")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--normalize", choices=_CHOICES["normalize"], default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vwave")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="derived scalar parameters of a bound state")
    p.add_argument("--z", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("free", help="uniform-motion wave/trajectory parameters")
    p.add_argument("--v", type=float, default=None)
    p.add_argument("--mass", type=float, default=None)
    p.add_argument("--branches", type=int, default=None)
    p.add_argument("--t", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("wave", help="sampled bound wave (u_+, u_-, R)")
    p.add_argument("--z", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    _add_grid_flags(p)
    _add_common(p)

    p = sub.add_parser("nodes", help="node detection and classification")
    p.add_argument("--z", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    _add_grid_flags(p)
    _add_common(p)

    p = sub.add_parser("superpose", help="node tracking for a superposition")
    p.add_argument("--z", type=int, default=None)
    p.add_argument("--states", type=str, default=None, help="comma-separated n values")
    p.add_argument("--weights", type=str, default=None, help="comma-separated weights")
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--t-samples", type=int, default=None)
    _add_grid_flags(p)
    _add_common(p)

    p = sub.add_parser("verify", help="independent verification battery")
    p.add_argument("--z", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None, help="largest n to check (1 to 3)")
    _add_common(p)

    p = sub.add_parser("figures", help="R(r/r_o) curve data for n = 1, 2, 3")
    p.add_argument("--z", type=int, default=None)
    p.add_argument("--out-dir", type=Path, default=None)
    _add_grid_flags(p)
    _add_common(p)

    return parser


_DEFAULTS = {
    "z": 1,
    "n": 1,
    "n_max": 3,
    "v": 1.0,
    "mass": 1.0,
    "branches": 6,
    "t": 0.0,
    "r_max": 3.0,
    "samples": 1000,
    "format": "json",
    "normalize": "off",
    "states": "1,2",
    "weights": "1,1",
    "t_max": None,
    "t_samples": 16,
    "out": None,
    "out_dir": None,
}

_TYPES = {
    "z": int, "n": int, "n_max": int, "branches": int, "samples": int,
    "t_samples": int, "v": float, "mass": float, "t": float, "r_max": float,
    "t_max": float, "out": Path, "out_dir": Path,
}


def read_config(path: Path) -> dict:
    """Parse a UTF-8 key=value file with '#' comments.

    Keys are the long flag names of any subcommand (dashes or underscores),
    so one file can serve every subcommand.  An unknown key, a value outside
    a flag's choices or of the wrong type raises ValueError naming the key.
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
        if key not in _DEFAULTS:
            raise ValueError(f"unknown config key {key!r} in {path}")
        if key in _CHOICES and val not in _CHOICES[key]:
            raise ValueError(
                f"config key {key!r} must be one of {', '.join(_CHOICES[key])}, got {val!r}"
            )
        try:
            cfg[key] = _TYPES.get(key, str)(val)
        except ValueError:
            raise ValueError(f"config key {key!r}: invalid value {val!r}") from None
    return cfg


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and flags (flags win)."""
    opts = dict(_DEFAULTS)
    cfg_path = getattr(args, "config", None)
    if cfg_path is not None:
        opts.update(read_config(cfg_path))
    for key, val in vars(args).items():
        if key in ("command", "config") or val is None:
            continue
        opts[key] = val
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


def cmd_state(opts: dict) -> int:
    payload = _state_payload(opts["z"], opts["n"])
    if opts["format"] == "csv":
        keys = [k for k in sorted(payload) if k != "atom"]
        text = render_csv(["z", "n", *keys],
                          [[opts["z"], opts["n"], *(payload[k] for k in keys)]])
    else:
        text = dumps_json(payload)
    _emit(text, opts["out"])
    return 0


def cmd_free(opts: dict) -> int:
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
    if opts["format"] == "csv":
        text = render_csv(["branch", "x_node"],
                          [[b, x] for b, x in enumerate(node_xs)])
    else:
        text = dumps_json(payload)
    _emit(text, opts["out"])
    return 0


def _build_wave(opts: dict, n: int | None = None):
    if opts["samples"] < 200:
        raise ValueError("need at least 200 samples for wave/nodes/figures output")
    if opts["r_max"] < 1.5:
        raise ValueError("r-max must be at least 1.5 (units of r_o)")
    atom = AtomSpec(opts["z"], opts["n"] if n is None else n)
    sol = build_series(atom)
    grid = make_radial_grid(sol, r_max_factor=opts["r_max"], samples=opts["samples"])
    return sample_wave(sol, grid)


def _wave_rows(wave, normalize: bool):
    scale = float(np.max(np.abs(wave.r_vals))) if normalize else 1.0
    r_o = wave.state.r_o
    return [
        [float(r), float(r / r_o), float(up), float(um), float(rv / scale)]
        for r, up, um, rv in zip(
            wave.grid.samples, wave.u_plus_vals, wave.u_minus, wave.r_vals
        )
    ]


def cmd_wave(opts: dict) -> int:
    wave = _build_wave(opts)
    rows = _wave_rows(wave, opts["normalize"] == "on")
    if opts["format"] == "csv":
        text = render_csv(["r", "r_over_ro", "u_plus", "u_minus", "R"], rows)
    else:
        text = dumps_json(
            {
                "atom": {"n": wave.atom.n, "z": wave.atom.z},
                "left_limit_at_ro": wave.left_limit_at_ro,
                "right_limit_at_ro": wave.right_limit_at_ro,
                "samples": [
                    {"r": a, "r_over_ro": b, "u_plus": c_, "u_minus": d, "R": e}
                    for a, b, c_, d, e in rows
                ],
                "state": _state_payload(wave.atom.z, wave.atom.n),
            }
        )
    _emit(text, opts["out"])
    return 0


def cmd_nodes(opts: dict) -> int:
    wave = _build_wave(opts)
    report = nodes_mod.find_nodes(wave)
    r_o = wave.state.r_o
    entries = [
        {
            "discontinuous": nd.discontinuous,
            "kind": nd.kind.value,
            "left_slope_sign": nd.left_slope_sign,
            "radius_bohr": nd.radius,
            "radius_over_ro": nd.radius / r_o,
            "right_slope_sign": nd.right_slope_sign,
            "value_left": nd.value_left,
            "value_right": nd.value_right,
        }
        for nd in report.nodes
    ]
    if opts["format"] == "csv":
        text = render_csv(
            ["radius_bohr", "radius_over_ro", "kind", "left_slope_sign",
             "right_slope_sign", "value_left", "value_right", "discontinuous"],
            [[e["radius_bohr"], e["radius_over_ro"], e["kind"], e["left_slope_sign"],
              e["right_slope_sign"], e["value_left"], e["value_right"],
              e["discontinuous"]] for e in entries],
        )
    else:
        text = dumps_json({"atom": {"n": wave.atom.n, "z": wave.atom.z}, "nodes": entries})
    _emit(text, opts["out"])
    return 0


def cmd_superpose(opts: dict) -> int:
    ns = [int(s) for s in str(opts["states"]).split(",")]
    weights = [float(s) for s in str(opts["weights"]).split(",")]
    waves = [_build_wave(opts, n=n) for n in ns]
    omegas = [w.state.omega for w in waves]
    t_max = opts["t_max"]
    if t_max is None:
        t_max = 2.0 * np.pi / min(omegas)
    times = list(np.linspace(0.0, t_max, opts["t_samples"]))
    # nodes are tracked on the common radial domain of all states, avoiding
    # every state's excluded neighborhoods
    track_grid = nodes_mod.common_tracking_grid(waves, samples=opts["samples"])
    common_max = track_grid.r_max
    tracked = nodes_mod.track_superposition_nodes(waves, weights, times, track_grid)
    payload = {
        "atom_z": opts["z"],
        "common_r_max": common_max,
        "slices": [
            {"degenerate": sl.degenerate, "radii": list(sl.radii), "t": sl.t}
            for sl in tracked.slices
        ],
        "states": ns,
        "tracks": [[{"r": r, "t": t} for t, r in tr] for tr in tracked.tracks],
        "weights": weights,
    }
    if opts["format"] == "csv":
        rows = []
        for i, sl in enumerate(tracked.slices):
            for r in sl.radii:
                rows.append([i, sl.t, r])
        text = render_csv(["slice", "t", "radius_bohr"], rows)
    else:
        text = dumps_json(payload)
    _emit(text, opts["out"])
    return 0


def cmd_verify(opts: dict) -> int:
    report = verify_mod.run_suite(opts["z"], opts["n_max"])
    _emit(dumps_json(report), opts["out"])
    return 0 if report["passed"] else 1


def cmd_figures(opts: dict) -> int:
    out_dir = opts["out_dir"] or Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for n in (1, 2, 3):
        wave = _build_wave(opts, n=n)
        scale = float(np.max(np.abs(wave.r_vals)))
        rows = [
            [float(r / wave.state.r_o), float(rv / scale)]
            for r, rv in zip(wave.grid.samples, wave.r_vals)
        ]
        text = render_csv(["r_over_ro", "R_normalized"], rows)
        (out_dir / f"figure_n{n}.csv").write_bytes(text.encode("utf-8"))
    return 0


_COMMANDS = {
    "state": cmd_state,
    "free": cmd_free,
    "wave": cmd_wave,
    "nodes": cmd_nodes,
    "superpose": cmd_superpose,
    "verify": cmd_verify,
    "figures": cmd_figures,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = resolve_options(args)
        return _COMMANDS[args.command](opts)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
