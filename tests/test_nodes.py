"""Node detection, classification and superposition tracking."""

import math

import numpy as np
import pytest

from vwave.nodes import (
    NodeKind,
    common_tracking_grid,
    find_nodes,
    track_superposition_nodes,
)
from vwave.series import build_series
from vwave.units import AtomSpec, derive_state
from vwave.wronskian import make_radial_grid, sample_wave, u_minus


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exactly_one_trajectory_surface_at_ro(waves, n):
    wave = waves[n]
    report = find_nodes(wave)
    surfaces = [nd for nd in report.nodes if nd.kind is NodeKind.TRAJECTORY_SURFACE]
    assert len(surfaces) == 1
    r_o = wave.state.r_o
    assert abs(surfaces[0].radius - r_o) <= 1e-6 * r_o
    assert surfaces[0].left_slope_sign != surfaces[0].right_slope_sign
    assert surfaces[0].discontinuous  # opposite one-sided limits at r_o


@pytest.mark.parametrize("samples", [1000, 4000])
@pytest.mark.parametrize("z", [1, 3])
@pytest.mark.parametrize("n", range(1, 11))
def test_ro_is_the_single_trajectory_surface(z, n, samples):
    sol = build_series(AtomSpec(z, n))
    report = find_nodes(sample_wave(sol, make_radial_grid(sol, samples=samples)))
    r_o = sol.state.r_o
    surfaces = [nd for nd in report.nodes if nd.kind is NodeKind.TRAJECTORY_SURFACE]
    assert len(surfaces) == 1
    assert abs(surfaces[0].radius - r_o) <= 1e-6 * r_o
    flagged = [nd for nd in report.nodes if nd.discontinuous]
    assert flagged == surfaces
    assert len(report.nodes) == n  # n - 1 plain zeros of u_- inside r_o


@pytest.mark.parametrize("n", range(2, 13))
def test_plain_zeros_match_roots_of_u_minus(n):
    from scipy.optimize import brentq

    for z in (1, 3):
        sol = build_series(AtomSpec(z, n))
        wave = sample_wave(sol, make_radial_grid(sol, samples=1000))
        r_o = sol.state.r_o
        roots = []
        for seg in wave.grid.segments():
            vals = u_minus(seg, sol)
            for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
                roots.append(
                    brentq(u_minus, seg[i], seg[i + 1], args=(sol,), xtol=1e-12 * r_o)
                )
        plain = [nd.radius for nd in find_nodes(wave).nodes if nd.kind is NodeKind.PLAIN_ZERO]
        assert len(plain) == len(roots) == n - 1
        assert np.max(np.abs(np.array(plain) - roots)) <= 1e-8 * r_o


@pytest.mark.parametrize("n", [11, 12, 14, 15, 20, 26, 30])
def test_plain_zeros_match_an_ode_solution_from_the_origin(n):
    # u_- = u_+ * int_0^r dr'/u_+^2 is the solution that vanishes at r = 0;
    # integrate the radial ODE u'' = -k_o^2*r/(r_o - r)*u from there, up to
    # 0.9999*r_o: from n = 30 the zero next to r_o lies past 0.999*r_o
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq

    sol = build_series(AtomSpec(1, n))
    k_o, r_o = sol.state.k_o, sol.state.r_o
    ode = solve_ivp(
        lambda r, y: [y[1], -k_o**2 * r / (r_o - r) * y[0]],
        (0.0, 0.9999 * r_o), [0.0, 1.0], method="DOP853", rtol=1e-12, atol=1e-14,
        dense_output=True,
    )
    rs = np.linspace(0.0, 0.9999 * r_o, 20001)
    u = ode.sol(rs)[0]
    want = [
        brentq(lambda r: ode.sol(r)[0], rs[i], rs[i + 1], xtol=1e-12 * r_o)
        for i in np.flatnonzero(u[:-1] * u[1:] < 0.0)
    ]
    for samples in (1000, 4000):
        report = find_nodes(sample_wave(sol, make_radial_grid(sol, samples=samples)))
        plain = [nd.radius for nd in report.nodes if nd.kind is NodeKind.PLAIN_ZERO]
        assert len(plain) == len(want) == n - 1
        assert np.max(np.abs(np.array(plain) - want)) <= 1e-6 * r_o
        # the zero next to r_o is plain: its slope is taken at the zero, not at the samples
        surfaces = [nd.radius for nd in report.nodes if nd.kind is NodeKind.TRAJECTORY_SURFACE]
        assert surfaces == [r_o]


def test_zero_on_a_sample_is_reported_there(waves):
    import dataclasses

    wave = waves[3]
    r = wave.grid.samples
    i = int(np.argmin(np.abs(r - 12.064)))  # nearest the first plain zero
    vals = wave.r_vals.copy()
    vals[i] = 0.0
    report = find_nodes(dataclasses.replace(wave, r_vals=vals, _interp=[]))
    assert len(report.nodes) == 3
    node = next(nd for nd in report.nodes if nd.radius == r[i])
    assert node.kind is NodeKind.PLAIN_ZERO
    assert (node.value_left, node.value_right) == (vals[i - 1], vals[i + 1])


def test_sides_that_do_not_alternate_are_refused(waves):
    import dataclasses

    # with L_- of the wrong sign the bracket next to r_o holds no zero
    wave = waves[3]
    flipped = dataclasses.replace(wave, left_limit_at_ro=-wave.left_limit_at_ro, _interp=[])
    with pytest.raises(ValueError, match=r"\(Z=1, n=3\)"):
        find_nodes(flipped)


def test_n1_has_single_node(waves):
    report = find_nodes(waves[1])
    assert len(report.nodes) == 1


@pytest.mark.parametrize("n,extra", [(2, 1), (3, 2)])
def test_other_zero_loci_are_plain(waves, n, extra):
    report = find_nodes(waves[n])
    plain = [nd for nd in report.nodes if nd.kind is NodeKind.PLAIN_ZERO]
    assert len(plain) == extra
    for nd in plain:
        assert nd.left_slope_sign == nd.right_slope_sign
        assert not nd.discontinuous


def test_radii_strictly_increasing(waves):
    report = find_nodes(waves[3])
    radii = report.radii
    assert radii == sorted(radii)
    assert len(set(radii)) == len(radii)


def test_detection_invariant_under_rescaling(waves):
    import dataclasses

    wave = waves[2]
    scaled = dataclasses.replace(
        wave,
        u_minus=wave.u_minus * 37.5,
        u_plus_vals=wave.u_plus_vals * 37.5,
        r_vals=wave.r_vals * 37.5,
        r_slopes=wave.r_slopes * 37.5,
        left_limit_at_ro=wave.left_limit_at_ro * 37.5,
        right_limit_at_ro=wave.right_limit_at_ro * 37.5,
        _interp=[],
    )
    a = find_nodes(wave)
    b = find_nodes(scaled)
    assert a.radii == pytest.approx(b.radii, abs=1e-12)
    assert [nd.kind for nd in a.nodes] == [nd.kind for nd in b.nodes]


def test_too_few_samples_rejected(solutions):
    from vwave.wronskian import sample_wave, make_radial_grid

    sol = solutions[1]
    grid = make_radial_grid(sol, samples=150)
    wave = sample_wave(sol, grid)
    with pytest.raises(ValueError):
        find_nodes(wave)


def test_single_state_nodes_time_invariant(waves, solutions):
    wave = waves[2]
    grid = wave.grid
    omega = wave.state.omega
    tracked = track_superposition_nodes(
        [wave], [1.0], [0.0, 0.3 / omega], grid
    )
    s0, s1 = tracked.slices
    assert not s0.degenerate and not s1.degenerate
    assert list(s1.radii) == pytest.approx(list(s0.radii), abs=1e-6 * wave.state.r_o)


def test_single_state_degenerate_slice(waves):
    wave = waves[1]
    omega = wave.state.omega
    t_zero = math.pi / (2.0 * omega)
    tracked = track_superposition_nodes([wave], [1.0], [0.0, t_zero], wave.grid)
    assert not tracked.slices[0].degenerate
    assert tracked.slices[1].degenerate
    assert tracked.slices[1].radii == ()


def test_superposition_beat_periodicity(waves):
    w1, w2 = waves[1], waves[2]
    omega1, omega2 = w1.state.omega, w2.state.omega
    # both cos(omega*t) factors repeat after 2*pi / gcd(1, 0.25) = 8*pi
    beat = 8.0 * math.pi
    assert omega1 * beat == pytest.approx(4 * 2 * math.pi)
    assert omega2 * beat == pytest.approx(1 * 2 * math.pi)
    grid = common_tracking_grid([w1, w2])
    t_probe = [0.0, 1.7, 5.2]
    times = t_probe + [t + beat for t in t_probe]
    tracked = track_superposition_nodes([w1, w2], [1.0, 1.0], times, grid)
    r_o = w1.state.r_o
    k = len(t_probe)
    for before, after in zip(tracked.slices[:k], tracked.slices[k:]):
        assert list(after.radii) == pytest.approx(
            list(before.radii), abs=1e-6 * r_o
        )


def test_superposition_nodes_actually_move(waves):
    w1, w2 = waves[1], waves[2]
    times = [0.0, 1.0, 2.0]
    grid = common_tracking_grid([w1, w2])
    tracked = track_superposition_nodes([w1, w2], [1.0, 1.0], times, grid)
    radii_sets = [sl.radii for sl in tracked.slices if not sl.degenerate]
    moved = any(
        len(a) != len(b)
        or any(abs(x - y) > 1e-4 * w1.state.r_o for x, y in zip(a, b))
        for a, b in zip(radii_sets, radii_sets[1:])
    )
    assert moved


def test_track_validation(waves):
    with pytest.raises(ValueError):
        track_superposition_nodes([waves[1]], [1.0], [0.0], waves[1].grid)
    with pytest.raises(ValueError):
        track_superposition_nodes([], [], [0.0, 1.0], waves[1].grid)
    with pytest.raises(ValueError):
        track_superposition_nodes([waves[1]], [1.0, 2.0], [0.0, 1.0], waves[1].grid)
    with pytest.raises(ValueError, match="all zero"):
        track_superposition_nodes([waves[1], waves[2]], [0.0, 0.0], [0.0, 1.0], waves[1].grid)
