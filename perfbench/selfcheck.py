"""Self-check of the benchmark's oracles.

Usage (from the repository root):

    python3 perfbench/selfcheck.py

Shows that the oracles can fail: they accept vwave's own outputs and reject
the same outputs perturbed by 1e-3, which is ten times the u_- tolerance.
Also cross-checks the oracles against each other and checks that
BENCHMARK.json lists exactly the metrics run.py reports.  Exits 0 when
every check holds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath
import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import oracles
    import run
    from vwave import nodes, series, units, wronskian

    results = []

    def expect(what: str, cond: bool) -> None:
        results.append(cond)
        print(f"[{'ok' if cond else 'FAIL'}] {what}")

    # mpmath.whitw at the oracle's precision against a second precision
    worst = 0.0
    for n in (1, 3, 5, 8):
        for rho in (1.001, 1.2, 2.0, 3.0):
            a = oracles.whittaker_u_minus(n, rho, dps=oracles.DPS)
            b = oracles.whittaker_u_minus(n, rho, dps=40)
            worst = max(worst, abs(a - b) / abs(b))
    expect(f"whitw at {oracles.DPS} digits matches 40 digits to {worst:.1e} (< 1e-14)",
           worst < 1e-14)

    # the dense inward-ODE oracle against whitw, and the limits at r_o
    for n in (1, 5, 10):
        rho = np.linspace(1.002, 3.0, 25)
        dev = np.max(np.abs(oracles.u_minus_dense(n, rho) / oracles.u_minus_right(n, rho) - 1))
        expect(f"n={n}: inward DOP853 oracle matches whitw to {dev:.1e} (< 1e-8)", dev < 1e-8)
        with mpmath.workdps(40):
            x = mpmath.mpf("1e-30")
            edge = float(-mpmath.exp(-2 * n) * mpmath.factorial(n) * mpmath.whitw(-n, 0.5, x))
        expect(f"n={n}: the Whittaker form tends to the right limit -e^(-2n) at r_o",
               abs(edge / oracles.limit(n, 1) - 1) < 1e-12)

    # vwave outputs pass; perturbed copies fail
    for z, n in ((1, 2), (3, 5)):
        sol = series.build_series(units.AtomSpec(z, n))
        grid = wronskian.make_radial_grid(sol)
        wave = wronskian.sample_wave(sol, grid)
        report = nodes.find_nodes(wave)
        r, um = grid.samples, wave.u_minus
        radii = [nd.radius for nd in report.nodes]
        kinds = [nd.kind.value for nd in report.nodes]
        r_o = oracles.state(z, n)["r_o"]

        def wave_ok(u_minus, radii=radii):
            v = oracles.check_wave(z, n, r, wave.u_plus_vals, u_minus,
                                   wave.left_limit_at_ro, wave.right_limit_at_ro)
            return v.merge(oracles.check_nodes(z, n, radii, kinds, float(r[0]))).ok

        expect(f"Z={z} n={n}: vwave's wave and nodes pass", wave_ok(um))
        scaled = np.where(r > r_o, um * (1 + 1e-3), um)
        expect(f"Z={z} n={n}: u_- scaled by 1+1e-3 beyond r_o is rejected", not wave_ok(scaled))
        i = kinds.index("plain_zero")
        shifted = list(radii)
        shifted[i] += 1e-3 * r_o
        expect(f"Z={z} n={n}: one plain node shifted by 1e-3*r_o is rejected",
               not wave_ok(um, shifted))

    # a superposition: tracked radii pass, a radius moved by three grid steps fails
    z, combo, weights = 2, (2, 3), [1.0, -0.8]
    waves = []
    for n in combo:
        sol = series.build_series(units.AtomSpec(z, n))
        waves.append(wronskian.sample_wave(sol, wronskian.make_radial_grid(sol)))
    g = nodes.common_tracking_grid(waves)
    times = list(np.linspace(0.0, 2 * np.pi / waves[-1].state.omega, 8))
    tr = nodes.track_superposition_nodes(waves, weights, times, g)
    radii = [list(sl.radii) for sl in tr.slices]
    ok = oracles.check_superposition(z, combo, weights, g.samples, times, radii).ok
    expect("superposition node radii pass", ok)
    radii[3][0] += 3 * float(np.median(np.diff(g.samples)))
    bad = oracles.check_superposition(z, combo, weights, g.samples, times, radii).ok
    expect("a superposition node moved by three grid steps is rejected", not bad)

    # BENCHMARK.json and run.py name the same metrics
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        expect(f"BENCHMARK.json {key} matches run.py", listed == table)

    print("all oracle self-checks hold" if all(results) else "SELF-CHECK FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
