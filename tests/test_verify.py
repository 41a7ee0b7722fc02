"""Independent oracle machinery: residuals, shooting, route agreement."""

import dataclasses
import functools
import math

import mpmath
import numpy as np
import pytest

from vwave import verify
from vwave.nodes import NodeKind, find_nodes
from vwave.series import build_series, interior_zeros, termination_ratio, u_plus
from vwave.units import AtomSpec, derive_state
from vwave.verify import (
    SUITE_N_MAX,
    SUITE_SAMPLES,
    SpaceTimeGrid,
    _taylor,
    _transfer,
    ode_residual,
    pde_residual_free,
    route_agreement,
    run_suite,
    shoot_inward,
    shooting_deviation,
    u_minus_crossings,
)
from vwave.wronskian import RadialGrid, make_radial_grid, sample_wave, u_minus


@functools.lru_cache(maxsize=None)
def _battery_wave(z, n):
    """The battery's one wave of state (Z, n) and the zero loci its residuals skip."""
    sol = build_series(AtomSpec(z, n))
    wave = sample_wave(sol, make_radial_grid(sol, samples=SUITE_SAMPLES))
    return wave, interior_zeros(sol) + u_minus_crossings(find_nodes(wave))


def _residuals(z, n):
    """ode_residual of u_+ and of u_- on the battery's wave of state (Z, n)."""
    wave, loci = _battery_wave(z, n)
    return (ode_residual(wave.u_plus_vals, wave.state, wave.grid, loci),
            ode_residual(wave.u_minus, wave.state, wave.grid, loci))


def _check_battery_residuals(z, n):
    # both branches pass their battery threshold, and each order is Numerov's
    # fourth, except for u_+ at n = 1 and 2, whose residual is at the rounding floor
    plus, minus = _residuals(z, n)
    assert plus.max_rel_residual < 1e-6 and minus.max_rel_residual < 1e-4
    if n <= 2:
        assert math.isnan(plus.order_estimate)
    else:
        assert 3.7 <= plus.order_estimate <= 4.3
    assert 3.7 <= minus.order_estimate <= 4.3


def test_u_plus_residual_small_and_fourth_order():
    for z in (1, 7, 392):
        for n in range(1, SUITE_N_MAX + 1):
            _check_battery_residuals(z, n)


@pytest.mark.parametrize("n", range(4, 13))
def test_u_plus_residual_is_fourth_order_above_suite_n_max(n):
    # SUITE_N_MAX's claim: above it, up to n = 12, every threshold-gated check
    # passes on the battery's lattice at Z = 1, 7 and 392, and each residual is
    # Numerov's own truncation
    for z in (1, 7, 392):
        _check_battery_residuals(z, n)
        sol = build_series(AtomSpec(z, n))
        assert shooting_deviation(sol, _battery_wave(z, n)[0]) < 1e-4


@pytest.mark.parametrize("branch,n", [
    ("u_plus", 1), ("u_minus", 1), ("u_minus", 2), ("u_minus", 3),
])
def test_ode_residual_order_is_nan_at_the_rounding_floor(branch, n):
    # u_+ at n = 1 sits at the stencil's rounding floor, where halving the
    # density does not grow the residual by 2^4; u_- is truncation throughout
    plus, minus = _residuals(1, n)
    if branch == "u_plus":
        assert math.isnan(plus.order_estimate)
    else:
        assert 3.7 <= minus.order_estimate <= 4.3


# (branch, n, lambda, eps): the smallest decade of eps at which the 3-point
# stencil on 4000 points per r_o flagged u*(1 + eps*sin(2*pi*r/(lambda*r_o)))
_PERTURBATIONS = [
    ("u_plus", 1, 0.1, 1e-8), ("u_plus", 1, 0.02, 1e-10),
    ("u_plus", 2, 0.1, 1e-8), ("u_plus", 2, 0.02, 1e-9),
    ("u_plus", 3, 0.1, 1e-7), ("u_plus", 3, 0.02, 1e-9),
    ("u_minus", 1, 0.1, 1e-6), ("u_minus", 1, 0.02, 1e-8),
    ("u_minus", 2, 0.1, 1e-6), ("u_minus", 2, 0.02, 1e-7),
    ("u_minus", 3, 0.1, 1e-6), ("u_minus", 3, 0.02, 1e-7),
]


@pytest.mark.parametrize("branch,n,lam,eps", _PERTURBATIONS)
def test_residual_flags_what_the_three_point_stencil_flagged(branch, n, lam, eps):
    wave, loci = _battery_wave(1, n)
    u, threshold = (wave.u_plus_vals, 1e-6) if branch == "u_plus" else (wave.u_minus, 1e-4)
    ripple = 1.0 + eps * np.sin(2.0 * np.pi * wave.grid.samples / (lam * wave.state.r_o))
    rep = ode_residual(u * ripple, wave.state, wave.grid, loci)
    assert rep.max_rel_residual > threshold


def test_perturbed_solution_detected():
    wave, loci = _battery_wave(1, 1)
    u, r = wave.u_plus_vals, wave.grid.samples
    clean = ode_residual(u, wave.state, wave.grid, loci)
    noisy = ode_residual(u + 1e-3 * r, wave.state, wave.grid, loci)
    assert noisy.max_rel_residual > 1e3 * clean.max_rel_residual


def test_residual_rejects_coarse_grid(solutions):
    # 28 interior samples, of which those within 0.05*r_o of r_o = 2 are not read
    sol = solutions[1]
    grid = RadialGrid(samples=np.linspace(0.5, 5.0, 30), exclusion_zones=())
    with pytest.raises(ValueError, match="grid too coarse: the residual reads 27 samples"):
        ode_residual(u_plus(grid.samples, sol), sol.state, grid, [])


def test_residual_rejects_nonuniform_grid(solutions):
    # 59 samples are read, and the stencil at 5.0 reaches to 5.5
    sol = solutions[1]
    samples = np.sort(np.concatenate([np.linspace(3.0, 5.0, 60), [5.5]]))
    grid = RadialGrid(samples=samples, exclusion_zones=())
    with pytest.raises(ValueError, match="grid must be uniform around each sample"):
        ode_residual(u_plus(grid.samples, sol), sol.state, grid, [])


def test_residual_refuses_values_not_on_the_grid():
    wave, loci = _battery_wave(1, 1)
    u = wave.u_plus_vals
    for bad in (u[:-1], np.append(u, 0.0), u[:, None]):
        with pytest.raises(ValueError, match="but the grid has"):
            ode_residual(bad, wave.state, wave.grid, loci)


@pytest.mark.parametrize("n", [55, 60, 76])
def test_residual_grid_refuses_zones_that_cover_the_left_side(n):
    # the 0.05*r_o zones around neighbouring zeros overlap all the way down to
    # 0.05*r_o, so no sample left of r_o is read; from n = 55 at Z = 1
    wave, loci = _battery_wave(1, n)
    r_o = wave.state.r_o
    with pytest.raises(ValueError, match=rf"reads no sample left of r_o = {r_o}: .* cover \["):
        ode_residual(wave.u_minus, wave.state, wave.grid, loci)


def test_residual_reads_the_left_side_up_to_n_54():
    # the refusal is the first n whose zones leave no sample left of r_o: n = 54
    # still has one, and its residual is read
    wave, loci = _battery_wave(1, 54)
    assert math.isfinite(ode_residual(wave.u_minus, wave.state, wave.grid, loci).max_rel_residual)


def test_pde_residual_free_wave():
    grid = SpaceTimeGrid(x_lo=0.0, x_hi=3.0, t_lo=0.0, t_hi=2.0, dx=1e-3, dt=7e-4)
    rep = pde_residual_free(1.0, grid)
    assert rep.max_rel_residual < 1e-6
    assert 1.7 <= rep.order_estimate <= 2.3


@pytest.mark.parametrize("v,order", [(0.37, math.nan), (1.0, 1.99), (2.5, 2.00)])
def test_pde_residual_order_is_nan_at_the_rounding_floor(v, order):
    # at v = 0.37 the residual (3.7e-8) lies below the second differences'
    # rounding floor (1.0e-7), and the coarse grid reads less than the fine one
    grid = SpaceTimeGrid(x_lo=0.0, x_hi=3.0, t_lo=0.0, t_hi=2.0, dx=1e-3, dt=7e-4)
    rep = pde_residual_free(v, grid)
    assert rep.max_rel_residual < 1e-6
    assert rep.order_estimate == pytest.approx(order, abs=0.01, nan_ok=True)


def test_pde_residual_detects_wrong_speed(monkeypatch):
    # a wave_value that travels at 1.1*v does not solve the wave equation of speed v
    true_wave = verify.wave_value
    monkeypatch.setattr(verify, "wave_value",
                        lambda x, t, p: true_wave(x, t, dataclasses.replace(p, v=1.1 * p.v)))
    grid = SpaceTimeGrid(x_lo=0.0, x_hi=3.0, t_lo=0.0, t_hi=2.0, dx=1e-3, dt=7e-4)
    rep = pde_residual_free(1.0, grid)
    assert rep.max_rel_residual > 1e-3


def test_shoot_inward_validation():
    st = derive_state(AtomSpec(1, 1))
    with pytest.raises(ValueError, match="r_start must be >= 3"):
        shoot_inward(st, 4.0, 2.5)  # r_start < 3*r_o
    with pytest.raises(ValueError, match="right of the pole at 2.0"):
        shoot_inward(st, 20.0, 1.0)


@pytest.mark.parametrize("args", [
    (20.0, math.inf),
    (math.inf, 3.0),
    (math.nan, 3.0),
    (20.0, math.nan),
    (-math.inf, 3.0),
])
def test_shoot_inward_rejects_non_finite(args):
    r_start, r_stop = args
    with pytest.raises(ValueError, match="must be finite"):
        shoot_inward(derive_state(AtomSpec(1, 1)), r_start, r_stop)


@pytest.mark.parametrize("r_stop", [20.0, 25.0])
def test_shoot_inward_rejects_outward_shooting(r_stop):
    with pytest.raises(ValueError, match="must lie left of r_start"):
        shoot_inward(derive_state(AtomSpec(1, 1)), 20.0, r_stop)


def test_shoot_inward_start_underflow_limit():
    # exp(-k_o*8*r_o) = exp(-16n): n = 44 starts at exp(-704), n = 45 at exp(-720),
    # below the smallest normal float64 (exp(-708.40))
    st = derive_state(AtomSpec(1, 44))
    prof = shoot_inward(st, 8.0 * st.r_o, 1.2 * st.r_o)
    assert np.all(np.isfinite(prof.u)) and np.all(prof.u > 0.0)
    st = derive_state(AtomSpec(1, 45))
    with pytest.raises(ValueError, match=r"k_o\*r_start must be at most 708\.40"):
        shoot_inward(st, 8.0 * st.r_o, 1.2 * st.r_o)


def test_shot_profile_refuses_radii_outside_its_range():
    st = derive_state(AtomSpec(1, 2))
    prof = shoot_inward(st, 8.0 * st.r_o, 1.5 * st.r_o)
    for r in (1.4 * st.r_o, 8.1 * st.r_o, math.nan):
        with pytest.raises(ValueError, match="radii must lie in"):
            prof.evaluate([2.0 * st.r_o, r])


def _per_radius_shot(prof, st, r):
    """u at r by a fresh Taylor recurrence from the nearest node at or right of each radius."""
    k = np.searchsorted(prof.r, r)
    tau = r - prof.r[k]
    start = np.stack([prof.u[k], tau * prof.du[k]], axis=-1)[:, None, :]
    return _taylor(prof.r[k], tau, start, st.k_o, st.alpha / st.beta0_sq).sum(axis=-1)[:, 0]


@pytest.mark.parametrize("z", [1, 3, 6])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_shot_profile_sums_its_step_coefficients(z, n):
    st = derive_state(AtomSpec(z, n))
    prof = shoot_inward(st, 8.0 * st.r_o, 1.2 * st.r_o * 0.99)
    r = np.linspace(1.2, 3.0, 2000) * st.r_o
    ref = _per_radius_shot(prof, st, r)
    assert np.max(np.abs(prof.evaluate(r) - ref) / np.abs(ref)) <= 2e-15
    # at a node the step's Horner sum is the node's own value, r_stop included
    assert np.array_equal(prof.evaluate(prof.r), prof.u)


@pytest.mark.parametrize("z", [1, 4])
@pytest.mark.parametrize("n", range(1, 7))
def test_step_matrices_have_unit_determinant(z, n):
    # u'' = -q*u is a traceless first-order system, so each step conserves the
    # Wronskian (Liouville): every transfer matrix has determinant 1
    st = derive_state(AtomSpec(z, n))
    prof = shoot_inward(st, 8.0 * st.r_o, 1.2 * st.r_o * 0.99)
    nodes = prof.r[::-1]
    mats, _ = _transfer(nodes[:-1], np.diff(nodes), st.k_o, st.alpha / st.beta0_sq)
    assert mats.shape == (len(nodes) - 1, 2, 2)
    assert np.max(np.abs(np.linalg.det(mats) - 1.0)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shooting_matches_wronskian(solutions, waves, n):
    assert shooting_deviation(solutions[n], waves[n]) < 1e-4


def _whittaker_u_minus(n, rho):
    """u_- right of r_o, up to a constant factor: W_{-n,1/2}(2*k_o*(r - r_o))."""
    with mpmath.workdps(25):
        return float(mpmath.whitw(-n, 0.5, 4 * n * (mpmath.mpf(rho) - 1)))


@pytest.mark.parametrize("z", [1, 4])
@pytest.mark.parametrize("n", range(1, 7))
def test_shot_profile_matches_whittaker(z, n):
    st = derive_state(AtomSpec(z, n))
    prof = shoot_inward(st, 8.0 * st.r_o, 1.2 * st.r_o * 0.99)
    rho = np.linspace(1.2, 3.0, 37)
    shot = prof.evaluate(rho * st.r_o) / prof.evaluate(2.0 * st.r_o)
    exact = np.array([_whittaker_u_minus(n, x) for x in rho]) / _whittaker_u_minus(n, 2.0)
    assert np.max(np.abs(shot - exact) / np.abs(exact)) < 5e-11


def test_shot_profile_is_decaying(solutions):
    sol = solutions[1]
    st = sol.state
    prof = shoot_inward(st, 8 * st.r_o, 1.5 * st.r_o)
    assert np.all(np.diff(prof.r) > 0)
    u = prof.evaluate(np.linspace(1.5 * st.r_o, 4 * st.r_o, 50))
    assert np.all(np.abs(u[1:]) < np.abs(u[:-1]))


def test_route_agreement():
    assert route_agreement(1, 3) < 1e-9


def test_u_minus_crossings_found(waves):
    assert u_minus_crossings(find_nodes(waves[1])) == []
    c2 = u_minus_crossings(find_nodes(waves[2]))
    assert len(c2) == 1
    # crossing sits between the interior zero (6) and r_o (8)
    assert 6.0 < c2[0] < 8.0
    assert len(u_minus_crossings(find_nodes(waves[3]))) == 2
    # Sturm separation: u_- has exactly one zero strictly between each pair of
    # consecutive zeros of u_+, with r_o counted among them
    for z in (1, 3):
        for n in range(1, 11):
            sol = build_series(AtomSpec(z, n))
            crossings = u_minus_crossings(find_nodes(sample_wave(sol, make_radial_grid(sol))))
            assert len(crossings) == n - 1, (z, n)
            zeros = interior_zeros(sol) + [sol.state.r_o]
            for lo, hi in zip(zeros, zeros[1:]):
                assert sum(lo < c < hi for c in crossings) == 1, (z, n, lo, hi)


@pytest.mark.parametrize("n_max", [0, 4, 10])
def test_run_suite_rejects_n_max_it_does_not_check(n_max):
    with pytest.raises(ValueError, match=f"between 1 and 3, got {n_max}"):
        run_suite(1, n_max)


@pytest.mark.parametrize("z", [1, 2, 6])
def test_run_suite_reports_what_its_checks_compute(z):
    expected = {
        "energy_route_agreement": (route_agreement(z, 3), True),
        "series_termination": (max(termination_ratio(AtomSpec(z, n)) for n in (1, 2, 3)), True),
    }
    for n in (1, 2, 3):
        sol = build_series(AtomSpec(z, n))
        wave = sample_wave(sol, make_radial_grid(sol, samples=SUITE_SAMPLES))
        report = find_nodes(wave)
        loci = interior_zeros(sol) + u_minus_crossings(report)
        r_o = sol.state.r_o
        left, right = u_minus(np.array([1.0 - 1e-4, 1.0 + 1e-4]) * r_o, sol)
        surfaces = [nd.radius for nd in report.nodes if nd.kind is NodeKind.TRAJECTORY_SURFACE]
        expected |= {
            f"u_plus_residual_n{n}": (
                ode_residual(wave.u_plus_vals, sol.state, wave.grid, loci).max_rel_residual, True),
            f"u_minus_residual_n{n}": (
                ode_residual(wave.u_minus, sol.state, wave.grid, loci).max_rel_residual, True),
            f"sign_change_at_ro_n{n}": (0.0, left * right < 0.0),
            f"shooting_vs_wronskian_n{n}": (shooting_deviation(sol, wave), True),
            f"trajectory_surface_n{n}": (
                0.0, len(surfaces) == 1 and abs(surfaces[0] - r_o) <= 1e-6 * r_o),
        }
    checks = run_suite(z, 3)["checks"]
    assert len(expected) == 17 and sorted(c["name"] for c in checks) == sorted(expected)
    for chk in checks:
        value, ok = expected[chk["name"]]
        assert chk["value"] == value, chk["name"]
        assert chk["passed"] == (ok and value <= chk["threshold"]), chk["name"]


def test_run_suite_samples_each_state_once(monkeypatch):
    # one wave per state feeds every check; u_- is evaluated apart from it only
    # at the two sign probes either side of r_o
    calls = {"sample_wave": [], "u_minus": []}
    for name in calls:
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *a, real=real, log=calls[name]:
                            log.append(a) or real(*a))
    run_suite(3, 3)
    assert [sol.atom.n for sol, _ in calls["sample_wave"]] == [1, 2, 3]
    for sol, grid in calls["sample_wave"]:
        assert np.array_equal(grid.samples, make_radial_grid(sol, samples=SUITE_SAMPLES).samples)
    assert [np.shape(r) for r, _ in calls["u_minus"]] == [(2,)] * 3
    assert not hasattr(verify, "u_plus")


def test_run_suite_passes():
    report = run_suite(1, 3)
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]
    names = {c["name"] for c in report["checks"]}
    assert "energy_route_agreement" in names
    assert "shooting_vs_wronskian_n3" in names


@pytest.mark.parametrize("z", [392, 1000, 10**6])
def test_run_suite_passes_at_large_z(z):
    # series_termination is relative to beta1 = 2Z, so it does not grow with Z
    report = run_suite(z, 3)
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]
