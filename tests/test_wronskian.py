"""Wronskian-constructed decaying branch and sampled bound waves."""

import math

import numpy as np
import pytest

from vwave.series import build_series, interior_zeros, product_form, u_plus, u_plus_prime
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
    u_minus_and_slope,
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
    # u_- = u_+ * int_0^r dr'/u_+^2, and r_o < r < r_t and r >= r_t (the
    # panels' end and the Gauss-Laguerre sum's start), where
    # u_- = u_+ * int_r^inf dr'/u_+^2.  Every radius must agree with direct
    # adaptive quadrature of 1/u_+^2, far past r_t too.
    from scipy.integrate import quad

    sol = build_series(AtomSpec(1, 1))
    r_t, r_o = WronskianEvaluator(sol)._r_t, sol.state.r_o
    rs = np.array([0.3, 1.0, 1.9, 2.1, 3.0, 0.999 * r_t, r_t, 6.0, 15.0, 22.5, 30.75])
    got = u_minus(rs, sol)

    def inv_sq(x):
        return math.exp(-2.0 * x) / (2.0 - x) ** 2

    for r, val in zip(rs, got):
        lo, hi = (0.0, r) if r < r_o else (r, math.inf)
        ref = u_plus(r, sol) * quad(inv_sq, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        assert val == pytest.approx(ref, rel=1e-10)


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
@pytest.mark.parametrize("n", range(2, 31))
def test_u_minus_at_interior_zeros_is_minus_reciprocal_slope(z, n):
    # u_- = u_+ * int dr'/u_+^2 is 0*inf at a zero z of u_+, where the
    # Wronskian u_+*u_-' - u_+'*u_- = 1 leaves u_-(z) = -1/u_+'(z)
    sol = build_series(AtomSpec(z, n))
    zeros = np.array(interior_zeros(sol))
    np.testing.assert_allclose(
        u_minus(zeros, sol), -1.0 / u_plus_prime(zeros, sol), rtol=1e-12, atol=0.0
    )


def _laguerre_u_minus(ev, r):
    """u_- = exp(-k_o*r)*P(r)/(2*k_o) * sum_j w_j/P(r + t_j/(2*k_o))^2 at one r >= r_t."""
    t, w = np.polynomial.laguerre.laggauss(40)
    p = product_form(ev.r_o - r - np.r_[0.0, t] / (2.0 * ev.k_o), ev.sol)[0]
    return math.exp(-ev.k_o * r) * p[0] / (2.0 * ev.k_o) * float(np.dot(w, p[1:] ** -2.0))


def _u_minus_one_radius(ev, r):
    """Reference: the kernel's arithmetic for one radius, with Gauss sums of its own."""
    if r >= ev._r_t:
        return _laguerre_u_minus(ev, r)
    i = int(np.searchsorted(ev._breaks, r, side="right")) - 1
    a, b = float(ev._breaks[i]), float(ev._breaks[i + 1])
    # the part of the panel toward 0 left of r_o, toward r_t right of it
    lo, hi = (a, r) if r < ev.r_o else (r, b)
    x, w = np.polynomial.legendre.leggauss(ev.quad_order)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    g = ev._regularized_integrand((mid + half * x)[None], np.array([i]))[0]
    part = half * float(np.dot(w, g))
    forward, backward = ev._cum[i] + part, part + ev._cum_back[i + 1]

    def singular(lo_end, hi_end):
        total = 0.0
        for q, (z, wq, c2, c1) in enumerate(zip(ev._z, ev._w, ev._c2, ev._c1)):
            sa = ev._offset(min(max(lo_end, z - wq), z + wq), q)
            sb = ev._offset(min(max(hi_end, z - wq), z + wq), q)
            if sa != sb:
                total += (-c2 / sb + c1 * math.log(abs(sb))) - (
                    -c2 / sa + c1 * math.log(abs(sa))
                )
        return total

    up = u_plus(r, ev.sol)
    p = int(ev._pole[i])
    if ev._kind[i] and p < len(ev._z) - 1:
        # in an interior zero's window: u_+ * (T - c2/(r - z)) = u_+*T - c2*q, with
        # q = u_+/(r - z) = -exp(k_o*r)*P/(s - s_j) the product without that zero's factor
        edge = float(ev._z[p] - ev._w[p])
        t = forward + singular(0.0, edge) + ev._c2[p] / ev._offset(edge, p)
        pq = float(product_form(ev.r_o - r, ev.sol, skip=len(ev.sol.roots) - 1 - p)[0])
        return up * t + ev._c2[p] * math.exp(ev.k_o * r) * pq
    if r < ev.r_o:
        return up * (forward + singular(0.0, r))
    # int_{r_t}^inf dr'/u_+^2 = u_-(r_t)/u_+(r_t)
    tail = _laguerre_u_minus(ev, ev._r_t) / u_plus(ev._r_t, ev.sol)
    return up * (backward + singular(r, ev._r_t) + tail)


@pytest.mark.parametrize("z,n", [(1, 1), (1, 2), (1, 3), (2, 5)])
def test_batched_kernel_matches_per_radius_reference(z, n):
    sol = build_series(AtomSpec(z, n))
    ev = WronskianEvaluator(sol)
    zeros = np.array(interior_zeros(sol))
    rs = np.concatenate([
        make_radial_grid(sol, samples=400).samples,
        [1.2 * ev._r_t, ev._r_t, 0.999 * ev._r_t],
        # at each interior zero, and inside its window
        zeros, zeros * (1.0 + 1e-9), zeros + 0.5 * EXCLUSION * sol.state.r_o,
    ])
    ref = np.array([_u_minus_one_radius(ev, float(r)) for r in rs])
    got = ev.u_minus_many(rs)
    # the panels serve below r_t only
    near, zone = rs < ev._r_t, np.zeros(len(rs), dtype=bool)
    zone[near] = ev._panels(rs[near])[1]
    # same arithmetic up to the log and exp implementations: a few ulps, in a
    # window of the two terms u_+*T and c2*q whose difference u_- is
    np.testing.assert_allclose(got[~zone], ref[~zone], rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(got[zone], ref[zone], rtol=0.0, atol=1e-15 * np.max(np.abs(ref)))


def _outward_shot(sol, r):
    """u and u' at radii r < 0.999*r_o, from u = 0, u' = 1/u_+(0) at the origin.

    Chains the battery's Taylor transfer matrices outward in steps of
    min(1/k_o, (r_o - r)/4), and takes one more step from the node at or
    left of each radius.  It shares only u_+(0) with the Wronskian construction.
    """
    from vwave.verify import _transfer

    k_o, r_o = sol.state.k_o, sol.state.r_o
    nodes = [0.0]
    while nodes[-1] < 0.999 * r_o:
        nodes.append(min(0.999 * r_o, nodes[-1] + min(1.0 / k_o, (r_o - nodes[-1]) / 4.0)))
    nodes = np.array(nodes)
    y = [np.array([0.0, 1.0 / u_plus(0.0, sol)])]
    for m in _transfer(nodes[:-1], np.diff(nodes), k_o, r_o):
        y.append(m @ y[-1])
    y = np.array(y)
    j = np.searchsorted(nodes, r, side="right") - 1
    out = y[j]
    tau = r - nodes[j]
    step = tau > 0.0
    mats = _transfer(nodes[j[step]], tau[step], k_o, r_o)
    out[step] = np.einsum("kij,kj->ki", mats, y[j[step]])
    return out[:, 0], out[:, 1]


@pytest.mark.parametrize("z", [1, 3, 5])
@pytest.mark.parametrize("n", [2, 3, 6, 10, 20, 30])
def test_u_minus_left_of_ro_matches_an_outward_shot(z, n):
    sol = build_series(AtomSpec(z, n))
    r_o = sol.state.r_o
    grid = make_radial_grid(sol).samples
    zeros = np.array(interior_zeros(sol))
    near = zeros[:, None] + r_o * np.array([-1e-8, -1e-11, 0.0, 1e-11, 1e-8])
    r = np.sort(np.concatenate([grid[grid <= 0.999 * r_o], near.ravel()]))
    u, du = _outward_shot(sol, r)
    um, dum = u_minus_and_slope(r, sol)
    assert np.max(np.abs(um - u)) <= 1e-13 * np.max(np.abs(u))
    assert np.max(np.abs(dum - du)) <= 1e-12 * np.max(np.abs(du))


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


@pytest.mark.parametrize("n", [1, 2, 4, 7, 8, 11])
def test_make_radial_grid_keeps_the_same_samples_for_every_z(n):
    # sample 333 of 1000 sits on the zone's edge, 0.999*r_o; whether r_o rounds up
    # or down must not decide whether it is kept
    for z in range(1, 13):
        sol = build_series(AtomSpec(z, n))
        grid = make_radial_grid(sol)
        assert len(grid.samples) == 1000
        lo, _ = grid.exclusion_zones[0]
        assert grid.samples[332] <= lo < grid.samples[333]
        assert grid.samples / sol.state.r_o == pytest.approx(
            np.arange(1, 1001) * 3.0 / 1000, rel=1e-15, abs=0)


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
        for n in [*range(1, 13), 20, 26, 30, 35, 38]:
            sol = build_series(AtomSpec(z, n))
            find_nodes(sample_wave(sol, make_radial_grid(sol, samples=samples)))
        # past that u_+^2 overflows float64 on the grid, and at n = 100 (Z = 1)
        # the coefficient a_n underflows: refused, not evaluated
        for n in (39, 40, 100):
            with pytest.raises(ValueError, match=rf"\(Z={z}, n={n}\) is out of float64 range"):
                sol = build_series(AtomSpec(z, n))
                sample_wave(sol, make_radial_grid(sol, samples=samples))


def test_underflowing_state_is_refused_before_its_jacobi_matrix():
    # a_n underflows long before n = 2000, whose dense Jacobi matrix alone
    # would take 32 MB
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"\(Z=1, n=2000\) is out of float64 range"):
            build_series(AtomSpec(1, 2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.fixture(scope="module")
def whittaker():
    """u_- right of r_o from mpmath.whitw, per (n, rho): it does not depend on Z."""
    mpmath = pytest.importorskip("mpmath")
    cache = {}

    def value(n, rho):
        if (n, rho) not in cache:
            with mpmath.workdps(30):
                x = 4 * n * (mpmath.mpf(rho) - 1)
                cache[n, rho] = float(
                    -mpmath.exp(-2 * n) * mpmath.factorial(n) * mpmath.whitw(-n, 0.5, x))
        return cache[n, rho]

    return value


@pytest.mark.parametrize("z", [1, 2, 92])
@pytest.mark.parametrize("n", [1, 2, 4, 6, 9, 12, 16, 20, 25])
def test_u_minus_right_of_ro_matches_whittaker(whittaker, z, n):
    # u_- = -e^(-2n)*n!*W_(-n,1/2)(2*k_o*(r - r_o)) (DLMF 13.14), on both sides
    # of the tail start r_t = r_o*(1 + 3/(2n)) and out to 10*r_o, where u_+^2
    # overflows from n = 16 on
    rhos = [1.01, 1.05, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0]
    sol = build_series(AtomSpec(z, n))
    got = u_minus(np.array(rhos) * sol.state.r_o, sol)
    want = [whittaker(n, rho) for rho in rhos]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


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
