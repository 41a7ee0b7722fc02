"""Wronskian-constructed decaying branch and sampled bound waves."""

import math

import numpy as np
import pytest

from vwave.series import build_series, interior_zeros, u_plus, u_plus_prime
from vwave.units import AtomSpec
from vwave.wronskian import (
    EXCLUSION,
    RadialGrid,
    WronskianEvaluator,
    make_radial_grid,
    sample_wave,
    superpose,
    tail_decay_rate,
    u_minus,
    wave_full,
)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_sided_limits_match_derivative_reciprocal(solutions, waves, n):
    sol = solutions[n]
    d1 = u_plus_prime(sol.state.r_o, sol)
    wave = waves[n]
    assert wave.left_limit_at_ro == pytest.approx(-1.0 / d1, rel=1e-4)
    assert wave.right_limit_at_ro == pytest.approx(+1.0 / d1, rel=1e-4)


@pytest.mark.parametrize("z", [1, 3])
@pytest.mark.parametrize("n", range(1, 11))
def test_limits_at_ro_are_exact(z, n):
    # u_+'(r_o) = -e^(2n), since a_1 = 1 and k_o*r_o = 2n
    left, right = WronskianEvaluator(build_series(AtomSpec(z, n))).limits_at_ro()
    assert left == pytest.approx(math.exp(-2 * n), rel=1e-14, abs=0.0)
    assert right == pytest.approx(-math.exp(-2 * n), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 10])
def test_quadrature_approaches_limits_at_ro(n):
    # the quadrature, not the closed form: u_-(r_o + s) - L = O(s ln|s|)
    sol = build_series(AtomSpec(1, n))
    r_o = sol.state.r_o
    limits = WronskianEvaluator(sol).limits_at_ro()
    eps = np.array([1e-4, 1e-5, 1e-6, 1e-7])
    for side, limit in zip((-1.0, 1.0), limits):
        err = np.abs(u_minus(r_o * (1.0 + side * eps), sol) / limit - 1.0)
        assert np.all(err[1:] < err[:-1] / 5.0)
        assert err[-1] < 1e-3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_r_slopes_match_differences_of_the_quadrature(solutions, waves, n):
    sol, wave = solutions[n], waves[n]
    r = wave.grid.samples[::37]
    h = 1e-6 * sol.state.r_o
    diff = (u_minus(r + h, sol) / (r + h) - u_minus(r - h, sol) / (r - h)) / (2.0 * h)
    scale = np.max(np.abs(wave.r_slopes))
    np.testing.assert_allclose(wave.r_slopes[::37], diff, rtol=0.0, atol=1e-7 * scale)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sign_change_at_ro(solutions, n):
    sol = solutions[n]
    r_o = sol.state.r_o
    left = u_minus(r_o - 1e-3 * r_o, sol)
    right = u_minus(r_o + 1e-3 * r_o, sol)
    assert left * right < 0.0


def test_n1_closed_form_value():
    # n=1: u_+ = e^r (2 - r), r_o = 2.  One array call spans r < r_o, where
    # u_- = u_+ * int_0^r dr'/u_+^2, and r_o < r < r_cut and r > r_cut, where
    # u_- = u_+ * int_r^inf dr'/u_+^2.  Below r_cut the construction must
    # agree with direct adaptive quadrature of 1/u_+^2.
    from scipy.integrate import quad

    sol = build_series(AtomSpec(1, 1))
    ev = WronskianEvaluator(sol)
    r_o, r_cut, k_o = sol.state.r_o, ev._r_cut, sol.state.k_o
    rs = np.array([0.3, 1.0, 1.9, 2.1, 3.0, 6.0, 1.1 * r_cut, 1.5 * r_cut])
    got = u_minus(rs, sol)

    def inv_sq(x):
        return math.exp(-2.0 * x) / (2.0 - x) ** 2

    for r, val in zip(rs, got):
        lo, hi = (0.0, r) if r < r_o else (r, math.inf)
        ref = u_plus(r, sol) * quad(inv_sq, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        if r < r_cut:
            assert val == pytest.approx(ref, rel=1e-10)
        else:
            # past r_cut the integral is the pure exponential e^{-2 k_o r}/2k_o,
            # which drops the algebraic factor: off by about 1/(k_o (r - r_o))
            assert abs(val / ref - 1.0) < 1.0 / (k_o * (r - r_o))


@pytest.mark.parametrize("n", [2, 3])
def test_smooth_through_interior_zeros(solutions, n):
    # u_- continues smoothly through interior zeros of u_+ with value
    # -1/u_+'(z); deviations at +-d are antisymmetric (pure slope).
    sol = solutions[n]
    for z in interior_zeros(sol):
        expect = -1.0 / u_plus_prime(z, sol)
        d = 1e-6 * sol.state.r_o
        lo, hi = u_minus(z - d, sol), u_minus(z + d, sol)
        assert lo == pytest.approx(expect, rel=1e-4)
        assert hi == pytest.approx(expect, rel=1e-4)
        assert (lo - expect) == pytest.approx(-(hi - expect), rel=1e-2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quadrature_convergence(solutions, n):
    sol = solutions[n]
    r_o = sol.state.r_o
    rs = np.array([0.4, 0.9, 1.3, 2.0, 2.9]) * r_o
    coarse = u_minus(rs, sol)
    fine = WronskianEvaluator(sol, quad_order=64).u_minus_many(rs)
    assert np.max(np.abs(fine / coarse - 1.0)) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tail_is_steepened_exponential(waves, n):
    # the decaying branch carries (r - r_o)^(-n) on top of exp(-k_o r): the
    # fitted log-slope is steeper than -k_o by tens of percent on [1.5, 3]*r_o
    wave = waves[n]
    k_o = wave.state.k_o
    slope = tail_decay_rate(wave)
    assert slope < -k_o  # strictly steeper than the bare exponential
    assert -1.6 * k_o < slope < -1.2 * k_o


def test_singular_points_rejected_with_guidance():
    sol = build_series(AtomSpec(1, 2))
    ev = WronskianEvaluator(sol)
    with pytest.raises(ValueError, match="nearest admissible"):
        ev.u_minus(sol.state.r_o)
    with pytest.raises(ValueError):
        ev.u_minus(-1.0)
    # the suggested radius itself must evaluate
    ev.u_minus(ev.nearest_admissible(sol.state.r_o))
    # the interior zero of u_+ at 6 is an ordinary point
    assert ev.u_minus(6.0) == pytest.approx(-1.0 / u_plus_prime(6.0, sol), rel=1e-10)


def test_array_with_singular_or_nonpositive_radius_rejected():
    sol = build_series(AtomSpec(1, 2))
    ev = WronskianEvaluator(sol)
    ok = [1.0, 5.0, 6.0, 9.0]
    with pytest.raises(ValueError, match="nearest admissible") as arr_err:
        u_minus(np.array(ok + [sol.state.r_o]), sol)
    with pytest.raises(ValueError) as scalar_err:
        ev.u_minus(sol.state.r_o)
    assert str(arr_err.value) == str(scalar_err.value)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive") as arr_err:
            ev.u_minus_many(np.array([bad] + ok))
        with pytest.raises(ValueError) as scalar_err:
            ev.u_minus(bad)
        assert str(arr_err.value) == str(scalar_err.value)
    np.testing.assert_allclose(
        u_minus(np.array(ok), sol), [ev.u_minus(r) for r in ok], rtol=1e-15, atol=0.0
    )


@pytest.mark.parametrize("z", [1, 3])
@pytest.mark.parametrize("n", range(2, 13))
def test_u_minus_at_interior_zeros_is_minus_reciprocal_slope(z, n):
    # u_- = u_+ * int dr'/u_+^2 is 0*inf at a zero z of u_+, where the
    # Wronskian u_+*u_-' - u_+'*u_- = 1 leaves u_-(z) = -1/u_+'(z)
    sol = build_series(AtomSpec(z, n))
    zeros = np.array(interior_zeros(sol))
    np.testing.assert_allclose(
        u_minus(zeros, sol), -1.0 / u_plus_prime(zeros, sol), rtol=1e-10, atol=0.0
    )


def _u_minus_one_radius(ev, r):
    """Reference: the per-radius evaluation that the batched kernel replaced."""
    i = int(np.searchsorted(ev._breaks, r, side="right")) - 1
    i = min(max(i, 0), len(ev._breaks) - 2)
    a, b = float(ev._breaks[i]), float(ev._breaks[i + 1])
    left = min(abs(a - z) for z in ev._zeros) >= min(abs(b - z) for z in ev._zeros)
    part = ev._panel_integral(a, r) if left else ev._panel_integral(r, b)
    forward = ev._panel_cum[i] + part if left else ev._panel_cum[i + 1] - part
    backward = ev._panel_cum_back[i] - part if left else part + ev._panel_cum_back[i + 1]

    def singular(lo_end, hi_end):
        total = 0.0
        for p in ev._poles:
            lo, hi = p.z - p.window, p.z + p.window
            sa = min(max(lo_end, lo), hi) - p.z
            sb = min(max(hi_end, lo), hi) - p.z
            if sa != sb:
                total += (-p.c2 / sb + p.c1 * math.log(abs(sb))) - (
                    -p.c2 / sa + p.c1 * math.log(abs(sa))
                )
        return total

    up = u_plus(r, ev.sol)
    if r < ev.r_o:
        return up * (forward + singular(0.0, r))
    if r >= ev._r_cut:
        return up * (1.0 / up**2 / (2.0 * ev.k_o))
    return up * (backward + singular(r, ev._r_cut) + ev._tail)


@pytest.mark.parametrize("z,n", [(1, 1), (1, 2), (1, 3), (2, 5)])
def test_batched_kernel_matches_per_radius_reference(z, n):
    sol = build_series(AtomSpec(z, n))
    ev = WronskianEvaluator(sol)
    rs = np.concatenate(
        [make_radial_grid(sol, samples=400).samples, [1.2 * ev._r_cut, 0.999 * ev._r_cut]]
    )
    # the reference is the direct product, which a Taylor step replaces
    # within EXCLUSION*r_o of an interior zero of u_+
    gap = np.abs(rs[:, None] - np.array(interior_zeros(sol))).min(axis=1, initial=np.inf)
    rs = rs[gap >= EXCLUSION * sol.state.r_o]
    ref = np.array([_u_minus_one_radius(ev, float(r)) for r in rs])
    # same arithmetic up to the log implementation: a few ulps
    np.testing.assert_allclose(ev.u_minus_many(rs), ref, rtol=1e-14, atol=0.0)


def test_array_call_matches_one_point_calls_across_blocks(solutions):
    # more radii than one evaluation block, in shuffled order
    sol = solutions[3]
    rs = np.random.default_rng(3).permutation(make_radial_grid(sol, samples=2500).samples)
    many = u_minus(rs, sol)
    assert many.shape == rs.shape
    for i in (0, 1023, 1024, 2047, len(rs) - 1):
        assert many[i] == pytest.approx(u_minus(float(rs[i]), sol), rel=1e-15, abs=0.0)


def test_radial_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(samples=np.array([1.0]), exclusion_zones=(), r_max=2.0)
    with pytest.raises(ValueError):
        RadialGrid(samples=np.array([2.0, 1.0]), exclusion_zones=(), r_max=2.0)
    with pytest.raises(ValueError):
        RadialGrid(
            samples=np.array([0.5, 1.0, 1.5]),
            exclusion_zones=((0.9, 1.1),),
            r_max=2.0,
        )


def test_make_radial_grid_respects_zones():
    sol = build_series(AtomSpec(1, 2))
    grid = make_radial_grid(sol)
    for lo, hi in grid.exclusion_zones:
        assert not np.any((grid.samples > lo) & (grid.samples < hi))
    # one zone, around r_o; the interior zero at 6 keeps its samples
    centers = [0.5 * (lo + hi) for lo, hi in grid.exclusion_zones]
    assert centers == pytest.approx([8.0], abs=1e-9)
    assert np.any(np.abs(grid.samples - 6.0) < EXCLUSION * sol.state.r_o)


def test_make_radial_grid_names_smallest_working_sample_count():
    sol = build_series(AtomSpec(1, 1))
    with pytest.raises(ValueError, match=r"\(Z=1, n=1\).*at least 301 samples"):
        make_radial_grid(sol, r_max_factor=150, samples=300)
    grid = make_radial_grid(sol, r_max_factor=150, samples=301)
    assert [len(seg) for seg in grid.segments()][0] == 2
    with pytest.raises(ValueError, match="r_max_factor"):
        make_radial_grid(sol, r_max_factor=1.0)


@pytest.mark.parametrize("samples", [1000, 4000])
@pytest.mark.parametrize("z", [1, 3])
def test_sampling_raises_no_warnings(z, samples):
    import warnings

    from vwave.nodes import find_nodes

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(1, 13):
            sol = build_series(AtomSpec(z, n))
            find_nodes(sample_wave(sol, make_radial_grid(sol, samples=samples)))


def test_sampled_wave_matches_pointwise_evaluation(solutions, waves):
    sol, wave = solutions[2], waves[2]
    idx = [0, 137, 500, len(wave.grid.samples) - 1]
    for i in idx:
        r = float(wave.grid.samples[i])
        assert wave.u_minus[i] == pytest.approx(u_minus(r, sol), rel=1e-13)
        assert wave.r_vals[i] == pytest.approx(wave.u_minus[i] / r, rel=1e-13)


def test_wave_full_time_factor(waves):
    wave = waves[1]
    r = 3.0
    base = wave_full(r, 0.0, wave)
    t = 0.4
    assert wave_full(r, t, wave) == pytest.approx(
        base * math.cos(wave.state.omega * t), rel=1e-12
    )


def test_r_of_rejects_out_of_domain(waves):
    wave = waves[1]
    with pytest.raises(ValueError):
        wave.r_of(100.0)
    with pytest.raises(ValueError):
        wave.r_of(wave.state.r_o)  # inside the exclusion zone


def test_superpose_validates_inputs(waves):
    with pytest.raises(ValueError):
        superpose([], [], 1.0, 0.0)
    with pytest.raises(ValueError):
        superpose([waves[1]], [1.0, 2.0], 1.0, 0.0)
    sol_he = build_series(AtomSpec(2, 1))
    wave_he = sample_wave(sol_he, make_radial_grid(sol_he))
    with pytest.raises(ValueError, match="nuclear charges"):
        superpose([waves[1], wave_he], [1.0, 1.0], 1.0, 0.0)


def test_superpose_linearity(waves):
    r, t = 3.1, 0.2
    a = superpose([waves[1]], [2.0], r, t)
    b = superpose([waves[1]], [1.0], r, t)
    assert a == pytest.approx(2.0 * b, rel=1e-13)
