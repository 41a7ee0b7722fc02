"""End-to-end acceptance battery.

Eleven numbered criteria covering the spectrum, quantization scan, series
termination, ODE/PDE residuals, tail decay, sign change and one-sided limits
at r_o, node classification, shooting equivalence, free motion, figure data,
and superposition node dynamics.  Each test prints a single pass/fail line.
"""

import math
import time

import numpy as np
import pytest

from vwave.free_motion import free_params, node_trajectory, wave_value
from vwave.nodes import (
    NodeKind,
    common_tracking_grid,
    find_nodes,
    track_superposition_nodes,
)
from vwave.series import (
    build_series,
    quantization_scan,
    termination_ratio,
    u_plus_prime,
)
from vwave.units import AtomSpec, derive_state
from vwave.verify import (
    SpaceTimeGrid,
    make_residual_grid,
    ode_residual,
    pde_residual_free,
    u_minus_crossings,
)
from vwave.series import interior_zeros, u_plus
from vwave.wronskian import tail_decay_rate, u_minus
from vwave.verify import shooting_deviation


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{tag}] {desc}{suffix}", flush=True)
    assert ok, f"criterion {num}: {desc}{suffix}"


def test_criterion_01_energy_spectrum():
    t0 = time.perf_counter()
    worst = 0.0
    for z in (1, 2, 3):
        for n in range(1, 11):
            got = derive_state(AtomSpec(z, n)).energy
            want = -(z**2) / (2.0 * n**2)
            worst = max(worst, abs(got / want - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, "energy spectrum -Z^2/(2n^2) to 1e-12", ok,
            f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_quantization_scan():
    t0 = time.perf_counter()
    found = dict(quantization_scan(1, -3.0, -0.004))
    worst = 0.0
    for n in range(1, 7):
        want = -1.0 / (2.0 * n**2)
        worst = max(worst, abs(found[n] / want - 1.0))
    elapsed = time.perf_counter() - t0
    ok = set(found) >= set(range(1, 7)) and worst <= 1e-9 and elapsed < 5.0
    _report(2, "quantization scan recovers n=1..6 to 1e-9", ok,
            f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_series_termination():
    worst = max(
        termination_ratio(AtomSpec(z, n)) for z in (1, 2, 3) for n in range(1, 13)
    )
    expected = {
        1: (1.0,),
        2: (1.0, -0.5),
        3: (1.0, -2.0 / 3.0, 2.0 / 27.0),
    }
    coeff_ok = all(
        build_series(AtomSpec(1, n)).coeffs
        == pytest.approx(expected[n], rel=1e-14)
        for n in expected
    )
    ok = worst <= 1e-14 and coeff_ok
    _report(3, "series terminates; n=1..3 coefficients reproduced", ok,
            f"worst termination ratio {worst:.2e}")


def test_criterion_04_ode_residuals(solutions, waves):
    t0 = time.perf_counter()
    worst_plus = worst_minus = 0.0
    orders = []
    for n in (1, 2, 3):
        sol = solutions[n]
        loci = interior_zeros(sol) + u_minus_crossings(find_nodes(waves[n]))
        grid = make_residual_grid(sol.state, loci)
        rep_p = ode_residual(u_plus(grid.samples, sol), sol.state, grid)
        rep_m = ode_residual(u_minus(grid.samples, sol), sol.state, grid)
        worst_plus = max(worst_plus, rep_p.max_rel_residual)
        worst_minus = max(worst_minus, rep_m.max_rel_residual)
        orders += [rep_p.order_estimate, rep_m.order_estimate]
    elapsed = time.perf_counter() - t0
    order_ok = all(1.7 <= o <= 2.3 for o in orders)
    ok = worst_plus < 1e-6 and worst_minus < 1e-4 and order_ok and elapsed < 10.0
    _report(4, "ODE residuals (u+ < 1e-6, u- < 1e-4, ~2nd order)", ok,
            f"u+ {worst_plus:.2e}, u- {worst_minus:.2e}, "
            f"orders {min(orders):.2f}..{max(orders):.2f}, {elapsed:.1f}s")


def test_criterion_05_exponential_tail(waves):
    details = []
    ok = True
    for n in (1, 2, 3):
        wave = waves[n]
        k_o = wave.state.k_o
        slope = tail_decay_rate(wave)
        rel = abs(slope + k_o) / k_o
        details.append(f"n={n}: slope {slope:.4f} vs -k_o {-k_o:.4f} ({rel:.1%} off)")
        ok = ok and rel <= 0.01
    _report(5, "tail decay rate within 1% of -k_o", ok, "; ".join(details))


def test_criterion_06_sign_change_and_limits(solutions, waves):
    ok = True
    worst = 0.0
    for n in (1, 2, 3):
        sol, wave = solutions[n], waves[n]
        r_o = sol.state.r_o
        left = u_minus(r_o - 1e-3 * r_o, sol)
        right = u_minus(r_o + 1e-3 * r_o, sol)
        ok = ok and left * right < 0.0
        d1 = u_plus_prime(r_o, sol)
        for got, want in (
            (wave.left_limit_at_ro, -1.0 / d1),
            (wave.right_limit_at_ro, +1.0 / d1),
        ):
            worst = max(worst, abs(got / want - 1.0))
    ok = ok and worst <= 1e-4
    _report(6, "sign change at r_o; one-sided limits -+1/u+'(r_o)", ok,
            f"worst limit rel err {worst:.2e}")


def test_criterion_07_trajectory_surface_detection(waves):
    ok = True
    details = []
    for n in (1, 2, 3):
        wave = waves[n]
        report = find_nodes(wave)
        surfaces = [nd for nd in report.nodes if nd.kind is NodeKind.TRAJECTORY_SURFACE]
        others = [nd for nd in report.nodes if nd.kind is not NodeKind.TRAJECTORY_SURFACE]
        r_o = wave.state.r_o
        good = (
            len(surfaces) == 1
            and abs(surfaces[0].radius - r_o) <= 1e-6 * r_o
            and all(nd.kind is NodeKind.PLAIN_ZERO for nd in others)
        )
        details.append(f"n={n}: {len(surfaces)} surface, {len(others)} plain")
        ok = ok and good
    _report(7, "exactly one trajectory surface at r_o; rest plain zeros", ok,
            "; ".join(details))


def test_criterion_08_shooting_equivalence(solutions, waves):
    worst = max(shooting_deviation(solutions[n], waves[n]) for n in (1, 2, 3))
    ok = worst <= 1e-4
    _report(8, "shooting vs Wronskian u- match on [1.2, 3]*r_o to 1e-4", ok,
            f"worst deviation {worst:.2e}")


def test_criterion_09_free_motion():
    p = free_params(1.0, 1.0)
    worst_node = 0.0
    for branch in range(6):
        for t in np.linspace(0.0, 10.0, 100):
            x = node_trajectory(p, branch, float(t))
            worst_node = max(worst_node, abs(wave_value(x, float(t), p)))
    de_broglie_exact = p.wavelength * p.m * p.v == 2.0 * math.pi
    grid = SpaceTimeGrid(x_lo=0.0, x_hi=3.0, t_lo=0.0, t_hi=2.0, dx=1e-3, dt=7e-4)
    rep = pde_residual_free(1.0, grid)
    ok = (
        worst_node <= 1e-12 * p.amplitude
        and de_broglie_exact
        and rep.max_rel_residual < 1e-6
        and 1.7 <= rep.order_estimate <= 2.3
    )
    _report(9, "free-motion nodes exact; lambda*m*v = h; PDE residual 2nd order",
            ok, f"node residual {worst_node:.2e}, FD {rep.max_rel_residual:.2e}")


def test_criterion_10_figure_data(tmp_path, capsys):
    from vwave.cli import main

    code = main(["figures", "--z", "1", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    ok = code == 0
    details = []
    for n in (1, 2, 3):
        path = tmp_path / f"figure_n{n}.csv"
        lines = path.read_text().strip().split("\n")
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        xs = [r for r, _ in rows]
        in_range = 0.0 < min(xs) and max(xs) <= 3.0 + 1e-12
        signs = [v > 0 for _, v in rows if v != 0.0]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        if n == 1:
            crossing = next(
                0.5 * (r1 + r2)
                for (r1, v1), (r2, v2) in zip(rows, rows[1:])
                if (v1 > 0) != (v2 > 0)
            )
            good = in_range and flips == 1 and abs(crossing - 1.0) < 5e-3
        else:
            good = in_range and flips > 1
        details.append(f"n={n}: {flips} sign changes")
        ok = ok and good
    _report(10, "R-curve data for n=1..3 over (0, 3]*r_o, structural checks", ok,
            "; ".join(details))


def test_criterion_11_superposition_dynamics(waves):
    # single state: node radii time-invariant
    w2 = waves[2]
    single = track_superposition_nodes(
        [w2], [1.0], [0.0, 0.7 / w2.state.omega], w2.grid
    )
    s0, s1 = single.slices
    tol = 1e-6 * w2.state.r_o
    invariant = len(s0.radii) == len(s1.radii) and all(
        abs(a - b) <= tol for a, b in zip(s0.radii, s1.radii)
    )
    # (1, 2) superposition repeats with the beat period of the time factors
    w1 = waves[1]
    omega1, omega2 = w1.state.omega, w2.state.omega
    # omega = 1 and 1/4: both time factors repeat after 8*pi
    beat = 8.0 * math.pi
    assert (omega1 * beat) / (2.0 * math.pi) == pytest.approx(4.0, rel=1e-12)
    assert (omega2 * beat) / (2.0 * math.pi) == pytest.approx(1.0, rel=1e-12)
    grid = common_tracking_grid([w1, w2])
    probes = [0.0, 1.3, 4.9]
    times = probes + [t + beat for t in probes]
    tracked = track_superposition_nodes([w1, w2], [1.0, 1.0], times, grid)
    k = len(probes)
    tol1 = 1e-6 * w1.state.r_o
    periodic = all(
        len(a.radii) == len(b.radii)
        and all(abs(x - y) <= tol1 for x, y in zip(a.radii, b.radii))
        for a, b in zip(tracked.slices[:k], tracked.slices[k:])
    )
    ok = invariant and periodic
    _report(11, "single-state nodes static; (1,2) beat period 8*pi", ok)
