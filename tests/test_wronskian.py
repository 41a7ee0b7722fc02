"""Wronskian-constructed decaying branch and sampled bound waves."""

import dataclasses
import math

import numpy as np
import pytest

from vwave import wronskian
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
def test_quadrature_convergence(solutions, n, monkeypatch):
    sol = solutions[n]
    r_o = sol.state.r_o
    rs = np.array([0.4, 0.9, 1.3, 2.0, 2.9]) * r_o
    coarse = u_minus(rs, sol)
    monkeypatch.setattr(wronskian, "_QUAD_ORDER", 64)
    fine = WronskianEvaluator(sol).u_minus_many(rs)[0]
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
    # r_o is the one singular point: refused, naming the one-sided limits
    sol = build_series(AtomSpec(1, 2))
    r_o = sol.state.r_o
    left, right = WronskianEvaluator(sol).limits_at_ro()
    with pytest.raises(ValueError, match="r_o") as err:
        u_minus(r_o, sol)
    assert f"{left} from the left and {right} from the right" in str(err.value)
    # a hair to either side it evaluates, O(s*ln|s|) from those limits
    near = u_minus(r_o * np.array([1.0 - 1e-12, 1.0 + 1e-12]), sol)
    np.testing.assert_allclose(near, [left, right], rtol=1e-9, atol=0.0)
    # the interior zero of u_+ at 6 is an ordinary point
    assert u_minus(6.0, sol) == pytest.approx(-1.0 / u_plus_prime(6.0, sol), rel=1e-10)


def test_array_with_singular_or_nonpositive_radius_rejected():
    sol = build_series(AtomSpec(1, 2))
    ev = WronskianEvaluator(sol)
    ok = [1.0, 5.0, 6.0, 9.0]
    for bad in (sol.state.r_o, math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError) as arr_err:
            ev.u_minus_many(np.array(ok + [bad]))
        with pytest.raises(ValueError) as scalar_err:
            u_minus(bad, sol)
        assert str(arr_err.value) == str(scalar_err.value)
        if bad != sol.state.r_o:
            assert "positive and finite" in str(arr_err.value)
    np.testing.assert_allclose(
        u_minus(np.array(ok), sol), [u_minus(r, sol) for r in ok], rtol=1e-15, atol=0.0
    )


def test_every_evaluation_goes_through_u_minus_many(monkeypatch):
    # the kernels run only inside the one entry point, so a wrapper there (the
    # benchmark's tracer) sees all of sample_wave's and find_nodes' traffic
    from vwave.nodes import find_nodes

    sol = build_series(AtomSpec(1, 6))
    grid = make_radial_grid(sol)
    sample_wave(sol, grid)  # the cached evaluator is built before the wrapping
    entry, depth, stray = WronskianEvaluator.u_minus_many, [0], []

    def wrapped(self, r, slope=False):
        depth[0] += 1
        try:
            return entry(self, r, slope=slope)
        finally:
            depth[0] -= 1

    def guard(name):
        kernel = getattr(WronskianEvaluator, name)

        def run(self, r, slope):
            if not depth[0]:
                stray.append((name, len(r)))
            return kernel(self, r, slope)
        return run

    monkeypatch.setattr(WronskianEvaluator, "u_minus_many", wrapped)
    for name in ("_evaluate", "_evaluate_tail"):
        monkeypatch.setattr(WronskianEvaluator, name, guard(name))
    find_nodes(sample_wave(sol, grid))
    assert stray == []


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
    t, w = wronskian._laguerre()
    p = product_form(ev.r_o - r - np.r_[0.0, t] / (2.0 * ev.k_o), ev.sol)[0]
    return math.exp(-ev.k_o * r) * p[0] / (2.0 * ev.k_o) * float(np.dot(w, p[1:] ** -2.0))


def _panel_sums(ev):
    """int_0^breaks[i] and int_breaks[i]^r_t of the regularized integrand, from the
    full panels summed once with the kernel's Gauss rule."""
    x, w = wronskian._legendre(wronskian._QUAD_ORDER)
    mid, half = 0.5 * (ev._breaks[1:] + ev._breaks[:-1]), 0.5 * np.diff(ev._breaks)
    g = ev._regularized_integrand(mid[:, None] + half[:, None] * x, np.arange(len(mid)))
    # reduced as the build reduces them: left of r_o the running sum nearly
    # cancels against the windows' closed forms (by up to 30 times at n = 38),
    # so another summation order alone would move u_- by 1e-15 of max
    panels = half * np.vecdot(g, w)
    return np.r_[0.0, np.cumsum(panels)], np.r_[np.cumsum(panels[::-1])[::-1], 0.0]


def _u_minus_one_radius(ev, r, sums):
    """Reference: the kernel's arithmetic for one radius, summed radius by radius on
    the kernel's Gauss rules; sums is _panel_sums(ev)."""
    if r >= ev._r_t:
        return _laguerre_u_minus(ev, r)
    i = int(np.searchsorted(ev._breaks, r, side="right")) - 1
    a, b = float(ev._breaks[i]), float(ev._breaks[i + 1])
    # the part of the panel toward 0 left of r_o, toward r_t right of it
    lo, hi = (a, r) if r < ev.r_o else (r, b)
    x, w = wronskian._legendre(wronskian._QUAD_ORDER)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    g = ev._regularized_integrand((mid + half * x)[None], np.array([i]))[0]
    part = half * float(np.dot(w, g))
    forward, backward = sums[0][i] + part, part + sums[1][i + 1]

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
    # int_{r_t}^inf dr'/u_+^2 = u_-(r_t)/u_+(r_t)
    tail = _laguerre_u_minus(ev, ev._r_t) / u_plus(ev._r_t, ev.sol)

    def finite_part(end):
        """The finite part from 0 to end left of r_o, from end to infinity right of it."""
        return forward + singular(0.0, end) if r < ev.r_o else backward + singular(end, ev._r_t) + tail

    p = int(ev._pole[i])
    if not ev._kind[i]:
        return up * finite_part(r)
    # in a zero's window, sign +1 left of r_o and -1 right of it, s = r - z:
    # u_+ * (T + sign*(-c2/s + c1*ln|s|)) = u_+*T + sign*(c1*u_+*ln|s| - c2*q), with
    # q = u_+/s = -exp(k_o*r)*P/(s - s_j) the product without that zero's factor
    sign = 1.0 if r < ev.r_o else -1.0
    edge = float(ev._z[p] - sign * ev._w[p])
    c1, c2, se = ev._c1[p], ev._c2[p], ev._offset(edge, p)
    t = finite_part(edge) + sign * (c2 / se - c1 * math.log(abs(se)))
    pq = float(product_form(ev.r_o - r, ev.sol, skip=len(ev.sol.roots) - 1 - p)[0])
    log = c1 * math.log(abs(ev._offset(r, p))) if c1 else 0.0
    return up * t + sign * (up * log + c2 * math.exp(ev.k_o * r) * pq)


@pytest.mark.parametrize("z,n", [(1, 1), (1, 2), (1, 3), (2, 5), (1, 20), (3, 38), (92, 50)])
def test_batched_kernel_matches_per_radius_reference(z, n):
    sol = build_series(AtomSpec(z, n))
    ev = WronskianEvaluator(sol)
    zeros = np.array(interior_zeros(sol))
    rs = np.concatenate([
        make_radial_grid(sol, samples=400).samples,
        [1.2 * ev._r_t, ev._r_t, 0.999 * ev._r_t],
        # at each interior zero, and inside its window
        zeros, zeros * (1.0 + 1e-9), zeros + 0.5 * EXCLUSION * sol.state.r_o,
        # a hair to either side of r_o
        sol.state.r_o * (1.0 + np.array([-1e-12, 1e-12])),
    ])
    sums = _panel_sums(ev)
    ref = np.array([_u_minus_one_radius(ev, float(r), sums) for r in rs])
    got = ev.u_minus_many(rs)[0]
    # the panels serve below r_t only
    near, zone = rs < ev._r_t, np.zeros(len(rs), dtype=bool)
    zone[near] = ev._panels(rs[near])[1]
    # same arithmetic up to the log and exp implementations: a few ulps, in a
    # window of the two terms u_+*T and c2*q whose difference u_- is
    np.testing.assert_allclose(got[~zone], ref[~zone], rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(got[zone], ref[zone], rtol=0.0, atol=1e-15 * np.max(np.abs(ref)))


def _outward_shot(sol, r):
    """u and u' at radii r < r_o, from u = 0, u' = 1/u_+(0) at the origin.

    Chains the battery's Taylor transfer matrices outward in steps of
    min(1/k_o, (r_o - r)/4, 2/sqrt(q)) up to the largest radius, and takes one
    more step from the node at or left of each radius.  q = k_o^2*r/(r_o - r)
    is the local wavenumber squared: it grows like n^2 next to r_o, where a step
    of (r_o - r)/4 alone would span several oscillations.  It shares only
    u_+(0) with the Wronskian construction.
    """
    from vwave.verify import _transfer

    k_o, r_o, end = sol.state.k_o, sol.state.r_o, float(np.max(r))
    nodes = [0.0]
    while nodes[-1] < end:
        x = nodes[-1]
        step = min(1.0 / k_o, (r_o - x) / 4.0)
        if x > 0.0:
            step = min(step, 2.0 / (k_o * math.sqrt(x / (r_o - x))))
        nodes.append(min(end, x + step))
    nodes = np.array(nodes)
    y = [np.array([0.0, 1.0 / u_plus(0.0, sol)])]
    for m in _transfer(nodes[:-1], np.diff(nodes), k_o, r_o)[0]:
        y.append(m @ y[-1])
    y = np.array(y)
    j = np.searchsorted(nodes, r, side="right") - 1
    out = y[j]
    tau = r - nodes[j]
    step = tau > 0.0
    mats, _ = _transfer(nodes[j[step]], tau[step], k_o, r_o)
    out[step] = np.einsum("kij,kj->ki", mats, y[j[step]])
    return out[:, 0], out[:, 1]


@pytest.mark.parametrize("z", [1, 3, 5])
@pytest.mark.parametrize("n", [2, 3, 6, 10, 20, 30, 50])
def test_u_minus_left_of_ro_matches_an_outward_shot(z, n):
    sol = build_series(AtomSpec(z, n))
    r_o = sol.state.r_o
    grid = make_radial_grid(sol).samples
    zeros = np.array(interior_zeros(sol))
    near = zeros[:, None] + r_o * np.array([-1e-8, -1e-11, 0.0, 1e-11, 1e-8])
    at_ro = r_o * (1.0 - np.array([1e-6, 1e-9, 1e-12]))
    r = np.sort(np.concatenate([grid[grid <= 0.999 * r_o], near.ravel(), at_ro]))
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
        RadialGrid(samples=np.array([1.0]), exclusion_zones=())
    with pytest.raises(ValueError):
        RadialGrid(samples=np.array([2.0, 1.0]), exclusion_zones=())
    with pytest.raises(ValueError):
        RadialGrid(samples=np.array([0.5, 1.0, 1.5]), exclusion_zones=((0.9, 1.1),))


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
        for n in [*range(1, 13), 20, 26, 30, 35, 38, 50, 60, 70, 76]:
            sol = build_series(AtomSpec(z, n))
            find_nodes(sample_wave(sol, make_radial_grid(sol, samples=samples)))
        # past that R = u_-/r underflows at the grid's far end, and at n = 100
        # (Z = 1) the coefficient a_n underflows: refused, not evaluated
        for n, what in ((77, ": R underflows at r="), (100, "")):
            refusal = rf"\(Z={z}, n={n}\) is out of float64 range{what}"
            with pytest.raises(ValueError, match=refusal):
                sol = build_series(AtomSpec(z, n))
                sample_wave(sol, make_radial_grid(sol, samples=samples))


def test_values_leaving_float64_are_refused():
    # u_- at (Z, n) = (1, 1) is a subnormal at r = 705 and underflows to -0.0
    # from r = 740 on; a grid out to 351.4*r_o keeps u_+ finite but puts
    # subnormal u_- values on its far end
    import warnings

    sol = build_series(AtomSpec(1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (705.0, 800.0):
            with pytest.raises(ValueError, match=rf"\(Z=1, n=1\).*u_- underflows at r={r:g}"):
                u_minus(r, sol)
        with pytest.raises(ValueError, match=r"\(Z=1, n=1\).*u_- underflows"):
            sample_wave(sol, make_radial_grid(sol, r_max_factor=351.4, samples=20000))


def test_evaluator_build_leaving_float64_names_its_cause():
    # build_series admits these states, but the evaluator's pole data or its
    # tail anchor u_+(r_t) leaves float64: refused by name, with no warning
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z, n, cause in (
            (92, 178, r"1/u_\+'\(z\)\^2 overflows at the zero z="),
            (118, 185, r"1/u_\+'\(z\)\^2 underflows at the zero z="),
            (1000, 278, r"u_\+ overflows at r_t="),
        ):
            sol = build_series(AtomSpec(z, n))
            refusal = rf"\(Z={z}, n={n}\) is out of float64 range: {cause}"
            with pytest.raises(ValueError, match=refusal):
                WronskianEvaluator(sol)
        for z in (1, 92):
            WronskianEvaluator(build_series(AtomSpec(z, 76)))


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
    """u_- and u_-' right of r_o from mpmath.whitw at the float radius r: they
    depend on Z only through r/r_o (and u_-' through the factor 1/r_o), taken
    exactly, since next to r_o rounding r to a float moves u_- by up to about
    1e-11.  W' comes from x*W'_(k,m)(x) = (x/2 - k)*W_(k,m)(x) - W_(k+1,m)(x)
    (DLMF 13.15.23)."""
    mpmath = pytest.importorskip("mpmath")
    cache = {}

    def value(n, r, r_o):
        with mpmath.workdps(30):
            rho = mpmath.mpf(r) / mpmath.mpf(r_o)
            if (n, rho) not in cache:
                x, c = 4 * n * (rho - 1), -mpmath.exp(-2 * n) * mpmath.factorial(n)
                w = mpmath.whitw(-n, 0.5, x)
                dw = ((x / 2 + n) * w - mpmath.whitw(1 - n, 0.5, x)) / x
                cache[n, rho] = float(c * w), float(c * dw * 4 * n)
            u, du = cache[n, rho]
            return u, du / r_o

    return value


@pytest.mark.parametrize("z", [1, 2, 92])
@pytest.mark.parametrize("n", [1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 35, 38])
def test_u_minus_right_of_ro_matches_whittaker(whittaker, z, n):
    # u_- = -e^(-2n)*n!*W_(-n,1/2)(2*k_o*(r - r_o)) (DLMF 13.14), and its slope:
    # from 1e-12*r_o right of r_o, across the panels graded away from r_o's
    # window, on both sides of r_o + 3/k_o = r_o*(1 + 3/(2n)) and of the tail
    # start r_t (the same radius below n = 24), and out to 10*r_o; there u_-
    # leaves float64's normal range from n = 29 on (-3.0e-320 at n = 30,
    # -1.2e-373 at n = 35), and is refused
    eps = [1e-12, 1e-9, 1e-6, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3]
    rhos = [1.0 + e for e in eps] + [1.01, 1.05, 1.2, 1.5, 2.0, 3.0, 5.0]
    sol = build_series(AtomSpec(z, n))
    r_o, k_o = sol.state.r_o, sol.state.k_o
    if n < 29:
        rhos.append(10.0)
    else:
        with pytest.raises(ValueError, match=rf"\(Z={z}, n={n}\).*u_- underflows at r="):
            u_minus(10.0 * r_o, sol)
    starts = sorted({r_o + 3.0 / k_o, WronskianEvaluator(sol)._r_t})
    r = np.r_[np.array(rhos) * r_o,
              [s + d / k_o for s in starts for d in (-0.5, -1e-3, 1e-3, 0.5)]]
    want = np.array([whittaker(n, x, r_o) for x in r.tolist()])
    um, dum = u_minus_and_slope(r, sol)
    np.testing.assert_allclose(um, want[:, 0], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(dum, want[:, 1], rtol=1e-12, atol=0.0)


def test_sampled_wave_matches_pointwise_evaluation(solutions, waves):
    sol, wave = solutions[2], waves[2]
    idx = [0, 137, 500, len(wave.grid.samples) - 1]
    for i in idx:
        r = float(wave.grid.samples[i])
        assert wave.u_minus[i] == pytest.approx(u_minus(r, sol), rel=1e-13)
        assert wave.r_vals[i] == pytest.approx(wave.u_minus[i] / r, rel=1e-13)


def test_superpose_time_factor(waves):
    wave = waves[1]
    r = 3.0
    base = superpose([wave], [1.0], r, 0.0)
    t = 0.4
    assert superpose([wave], [1.0], r, t) == pytest.approx(
        base * math.cos(wave.state.omega * t), rel=1e-12
    )


def _segment_arrays(wave):
    """(samples, R, dR/dr) of each smooth segment of a sampled wave."""
    cuts = np.cumsum([len(seg) for seg in wave.grid.segments()])[:-1]
    return zip(wave.grid.segments(), np.split(wave.r_vals, cuts), np.split(wave.r_slopes, cuts))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_r_of_matches_scipy_cubic_hermite(waves, n):
    from scipy.interpolate import CubicHermiteSpline

    wave = waves[n]
    for x, y, d in _segment_arrays(wave):
        xx = np.concatenate([x, np.linspace(x[0], x[-1], 2001)])
        ref = CubicHermiteSpline(x, y, d)(xx)
        got = np.array([wave.r_of(float(r)) for r in xx])
        assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)) <= 1e-13


def test_r_of_reproduces_a_cubic(waves):
    def p(r):
        return 0.5 - 1.5 * r + 0.75 * r**2 - 0.25 * r**3

    def dp(r):
        return -1.5 + 1.5 * r - 0.75 * r**2

    wave = waves[1]
    x = wave.grid.samples
    cubic = dataclasses.replace(wave, r_vals=p(x), r_slopes=dp(x))
    for seg in wave.grid.segments():
        between = 0.5 * (seg[1:] + seg[:-1])
        got = np.array([cubic.r_of(float(r)) for r in between])
        np.testing.assert_allclose(got, p(between), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_r_of_at_the_edges_of_the_gap_around_ro(waves, n):
    # make_radial_grid snaps the last sample left of r_o onto the zone's edge;
    # that sample bounds the one interval spanning the gap, and is accepted
    wave = waves[n]
    x, r_o = wave.grid.samples, wave.state.r_o
    k = int(np.searchsorted(x, r_o))
    assert x[k - 1] == wave.grid.exclusion_zones[0][0]
    assert wave.r_of(float(x[k - 1])) == wave.r_vals[k - 1]
    assert wave.r_of(float(x[k])) == wave.r_vals[k]
    assert wave.r_of(float(x[0])) == wave.r_vals[0]
    assert wave.r_of(float(x[-1])) == pytest.approx(wave.r_vals[-1], rel=1e-15)
    rejected = [r_o, 0.5 * (x[k - 1] + x[k]), math.nan, math.inf, -math.inf,
                np.nextafter(x[0], 0.0), np.nextafter(x[-1], math.inf)]
    for r in rejected:
        with pytest.raises(ValueError, match="outside the sampled domain"):
            wave.r_of(float(r))


def test_r_of_rejects_out_of_domain(waves):
    wave = waves[1]
    with pytest.raises(ValueError):
        wave.r_of(100.0)
    with pytest.raises(ValueError):
        wave.r_of(wave.state.r_o)  # inside the exclusion zone


def test_a_replaced_wave_interpolates_its_own_samples(waves):
    # a sampled wave is a frozen value: a copy made by dataclasses.replace
    # builds its interpolants from its own samples, even after the original
    # has built its own
    wave = waves[2]
    r = float(wave.grid.samples[100]) + 1e-3
    value = wave.r_of(r)
    flipped = dataclasses.replace(wave, r_vals=-wave.r_vals, r_slopes=-wave.r_slopes)
    assert flipped.r_of(r) == -value
    with pytest.raises(dataclasses.FrozenInstanceError):
        wave.r_vals = flipped.r_vals


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
