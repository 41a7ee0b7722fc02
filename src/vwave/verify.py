"""Verification machinery for the solver.

Finite-difference residuals of the library's own waves and an inward
Taylor-series integration of the radial ODE check the construction from
outside it.  The battery samples each state once, on a lattice of 1000 points
per r_o: both residuals, find_nodes and the shooting comparison read that one
wave, and only the sign probes either side of r_o evaluate u_- apart from it.
Two battery checks share code with what they check:
energy_route_agreement compares derive_state's closed-form energy with a scan
of the same termination condition, and trajectory_surface_n{n} reads the
surface that find_nodes reports.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .free_motion import free_params, wave_value
from .nodes import NodeKind, NodeReport, find_nodes
from .series import build_series, interior_zeros, quantization_scan, termination_ratio
from .units import AtomSpec, StateParams, derive_state
from .wronskian import RadialGrid, make_radial_grid, sample_wave, u_minus


@dataclass(frozen=True)
class ResidualReport:
    max_rel_residual: float
    order_estimate: float


def _coefficient(r: np.ndarray, state: StateParams) -> np.ndarray:
    """ODE coefficient: u'' + (k_o^2*alpha/(alpha - beta0^2*r) - k_o^2)*u = 0."""
    return state.k_o**2 * state.alpha / (state.alpha - state.beta0_sq * r) - state.k_o**2


def _numerov(u: np.ndarray, r: np.ndarray, state: StateParams,
             read: np.ndarray) -> tuple[float, float]:
    """Max pointwise-normalized Numerov residual of u at the samples ``read`` marks.

    The ends are never read: a stencil needs a sample on each side.  Returns
    (residual, floor): the worst residual and, at the sample where it occurs,
    the stencil's rounding floor relative to the scale there.  Each sample
    carries a rounding error of about eps*(|u| + r*|u'|), its value's own and
    that of its radius, so the second difference's floor is about
    4*eps*(|u| + r*|u'|)/h^2.
    """
    i = np.flatnonzero(read[1:-1]) + 1
    h = 0.5 * (r[i + 1] - r[i - 1])
    cl, c0, cr = (_coefficient(r[j], state) * u[j] for j in (i - 1, i, i + 1))
    upp = (u[i - 1] - 2.0 * u[i] + u[i + 1]) / h**2
    resid = np.abs(upp + (cl + 10.0 * c0 + cr) / 12.0)
    scale = np.abs(upp) + state.k_o**2 * np.abs(u[i]) + np.abs(c0)
    rel = resid / scale
    j = int(np.argmax(rel))
    k = i[j]
    sample_error = abs(u[k]) + r[k] * abs(u[k + 1] - u[k - 1]) / (2.0 * h[j])
    return float(rel[j]), 4.0 * sys.float_info.epsilon * sample_error / h[j]**2 / float(scale[j])


def ode_residual(u, state: StateParams, grid: RadialGrid, zero_loci: list[float]) -> ResidualReport:
    """Residual of a sampled radial solution, with a two-grid order estimate.

    ``u`` holds the solution's values at ``grid.samples``.  The residual is
    read at every sample from 0.05*r_o on, except those within 0.05*r_o of
    r_o or of a radius in ``zero_loci``: the interior zeros of u_+ and, for
    the decaying branch, its own crossings, where the pointwise scale below
    vanishes.  At least 50 samples must be read, some of them left of r_o,
    and the grid must be uniform around each.  The residual is Numerov's
    relation for u'' = -c*u,
    (u[+] - 2u[0] + u[-])/h^2 + (c[+]u[+] + 10c[0]u[0] + c[-]u[-])/12, of
    fourth order in h, over the pointwise scale |u''| + k_o^2*|u| + |c*u|.
    The convergence order is estimated against every other sample (refining
    instead would push the finer residual toward the rounding floor of the
    stencil).  That floor is about 4*eps*(|u| + r*|u'|)/h^2 over the scale at
    the worst sample, the rounding of each sample's value and of its radius;
    where the residual is within twice it, the order is NaN, as it is for u_+
    at n = 1 and 2 on the battery's lattice.
    """
    u = np.asarray(u, dtype=float)
    r = grid.samples
    if u.shape != r.shape:
        raise ValueError(f"u has shape {u.shape}, but the grid has {len(r)} samples")
    r_o = state.r_o
    loci = np.array([r_o, *zero_loci])
    read = (r >= 0.05 * r_o) & np.all(np.abs(r[:, None] - loci) > 0.05 * r_o, axis=1)
    read[[0, -1]] = False
    i = np.flatnonzero(read)
    if len(i) < 50:
        raise ValueError(f"grid too coarse: the residual reads {len(i)} samples, "
                         "and needs at least 50")
    h = np.diff(r)
    # np.allclose(h[i], h[i - 1], rtol=1e-9) with its default atol, without its overhead
    if not np.all(np.abs(h[i] - h[i - 1]) <= 1e-8 + 1e-9 * np.abs(h[i - 1])):
        raise ValueError("grid must be uniform around each sample the residual reads")
    if not r[i[0]] < r_o:
        raise ValueError(
            f"the residual reads no sample left of r_o = {r_o}: the zones of half-width "
            f"{0.05 * r_o} around r_o and the zero loci cover [{0.05 * r_o}, {r_o}]")
    worst, floor = _numerov(u, r, state, read)
    coarse = _numerov(u[::2], r[::2], state, read[::2])[0]
    order = (math.log2(coarse / worst) if worst > 2.0 * floor and coarse > 0
             else float("nan"))
    return ResidualReport(max_rel_residual=worst, order_estimate=order)


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Rectangle in (x, t) with independent spacings for the free-wave check."""

    x_lo: float
    x_hi: float
    t_lo: float
    t_hi: float
    dx: float
    dt: float


def pde_residual_free(v: float, grid: SpaceTimeGrid) -> ResidualReport:
    """FD residual of d2V/dt2 - v^2 d2V/dx2 on free_motion.wave_value at velocity v.

    The convergence order is estimated against a 2x-coarsened grid: halving
    the spacings instead would push the second differences toward their
    rounding floor.  That floor, relative to the scale's omega^2*A, is about
    4*eps*(1/dt^2 + v^2/dx^2)/omega^2; where the residual is within twice it,
    the order is NaN.  On dx = 1e-3, dt = 7e-4 it is 1.0e-7 at v = 0.37, whose
    residual of 3.7e-8 is rounding, not truncation.
    """
    p = free_params(v)

    def residual(dx: float, dt: float) -> float:
        xs = np.arange(grid.x_lo, grid.x_hi + 0.5 * dx, dx)
        ts = np.arange(grid.t_lo, grid.t_hi + 0.5 * dt, dt)
        vals = wave_value(xs[:, None], ts, p)
        vtt = (vals[:, :-2] - 2 * vals[:, 1:-1] + vals[:, 2:]) / dt**2
        vxx = (vals[:-2, 1:-1] - 2 * vals[1:-1, 1:-1] + vals[2:, 1:-1]) / dx**2
        res = np.abs(vtt[1:-1, :] - v**2 * vxx)
        scale = np.abs(vtt[1:-1, :]) + v**2 * np.abs(vxx) + p.omega**2 * p.amplitude
        return float(np.max(res / scale))

    base = residual(grid.dx, grid.dt)
    coarse = residual(2 * grid.dx, 2 * grid.dt)
    floor = 4.0 * sys.float_info.epsilon * (1.0 / grid.dt**2 + v**2 / grid.dx**2) / p.omega**2
    order = math.log2(coarse / base) if base > 2.0 * floor and coarse > 0 else float("nan")
    return ResidualReport(max_rel_residual=base, order_estimate=order)


# Inward shooting takes Taylor steps of u'' = -q(r)*u, q(r) = k_o^2*(r_o/(r_o - r) - 1).
# About r0, with d = r_o - r0, q's own coefficients are closed-form: q_0 = k_o^2*(r_o/d - 1)
# and q_j = k_o^2*r_o/d^(j+1).  A step of min(1/k_o, |d|/4) keeps |tau/d| <= 1/4 and
# k_o*|tau| <= 1, so _TAYLOR_TERMS terms converge to rounding.
_TAYLOR_TERMS = 30
_STEP_FRACTION = 0.25


def _taylor(r0: np.ndarray, tau: np.ndarray, start: np.ndarray, k_o: float,
            r_pole: float) -> np.ndarray:
    """Scaled Taylor coefficients c_m = u_m*tau^m of u'' = -q(r)*u about each r0.

    ``start`` has shape (K, B, 2): for B solutions about each of K centres it holds
    (c_0, c_1) = (u(r0), tau*u'(r0)).  Returns shape (K, B, _TAYLOR_TERMS), so that
    u(r0 + tau) = sum_m c_m and tau*u'(r0 + tau) = sum_m m*c_m.
    """
    d = r_pole - r0
    # p_j = tau^(j+2)*q_j, so c_(m+2) = -sum_(j<=m) p_j*c_(m-j) / ((m+2)(m+1))
    p = (k_o**2 * r_pole) * (tau**2 / d)[:, None] * (tau / d)[:, None] ** np.arange(
        _TAYLOR_TERMS - 2)
    p[:, 0] -= (k_o * tau) ** 2
    c = np.zeros(start.shape[:-1] + (_TAYLOR_TERMS,))
    c[..., :2] = start
    for m in range(_TAYLOR_TERMS - 2):
        conv = c[..., : m + 1] @ p[:, m::-1, None]
        c[..., m + 2] = -conv[..., 0] / ((m + 2) * (m + 1))
    return c


def _transfer(r0: np.ndarray, tau: np.ndarray, k_o: float,
              r_pole: float) -> tuple[np.ndarray, np.ndarray]:
    """Step matrices and coefficients of the unit solutions about each r0.

    Returns (matrices, c): the matrices, shape (K, 2, 2), map (u, u') at r0 to
    (u, u') at r0 + tau; c, shape (K, 2, _TAYLOR_TERMS), holds the scaled
    Taylor coefficients of the solutions started at (u, u') = (1, 0) and (0, 1).
    """
    basis = np.zeros((len(r0), 2, 2))
    basis[:, 0, 0] = 1.0  # u = 1, u' = 0
    basis[:, 1, 1] = tau  # u = 0, u' = 1
    c = _taylor(r0, tau, basis, k_o, r_pole)
    u = c.sum(axis=-1)
    du = (c @ np.arange(_TAYLOR_TERMS)) / tau[:, None]
    return np.stack([u, du], axis=1), c


@dataclass(frozen=True)
class ShootingProfile:
    """Inward-integrated decaying solution on [r_stop, r_start].

    ``r`` holds the step nodes in increasing order, ``u`` and ``du`` the
    solution and its slope there.
    ``coeffs[k]`` holds the scaled Taylor coefficients of the step from r[k]
    inward to r[k - 1]; no step leaves r_stop, so ``coeffs[0]`` is u[0] alone.
    """

    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    coeffs: np.ndarray

    def evaluate(self, r) -> np.ndarray:
        """u at radii in [r_stop, r_start], from the step of the nearest node at or right.

        Sums that step's coefficients by Horner in x = tau/tau_step, which lies in
        [0, 1]; at a node x = 0, so the node's own u is returned exactly.
        """
        r = np.asarray(r, dtype=float)
        flat = r.ravel()
        if not np.all((flat >= self.r[0]) & (flat <= self.r[-1])):
            raise ValueError(f"radii must lie in [{self.r[0]}, {self.r[-1]}]")
        k = np.searchsorted(self.r, flat)
        # at k = 0 the radius is r_stop, x = 0 and r[k - 1] (r_start) only keeps x finite
        x = (flat - self.r[k]) / (self.r[k - 1] - self.r[k])
        c = self.coeffs[k]
        out = c[:, -1]
        for m in range(_TAYLOR_TERMS - 2, -1, -1):
            out = out * x + c[:, m]
        return out.reshape(r.shape)


def shoot_inward(state: StateParams, r_start: float, r_stop: float) -> ShootingProfile:
    """Integrate the bound state's radial ODE inward from the exponential asymptote.

    Reads k_o and the coefficient's pole alpha/beta0^2 from ``state``: the
    pole _coefficient uses, which r_o can miss in the last bit.  Starts at
    (u, u') = (exp(-k_o*r_start), -k_o*exp(-k_o*r_start)); inward integration
    keeps the growing branch suppressed.  Each step from r is a 30-term Taylor
    series of length min(1/k_o, (r - r_o)/4), so the steps stay strictly right
    of the pole and the last one lands on r_stop.  All step matrices come from
    one array pass and are chained as 2x2 products; each step's coefficients
    are kept for ``evaluate``.  Started at 8*r_o and compared with Whittaker's
    W on [1.2, 3]*r_o (Z = 1, 4; n = 1..6), the relative error is 6.2e-12 at
    n = 1, where it is the growing branch that the pure-exponential start
    admits (5e-16 from 12*r_o), and at most 3.7e-15 for n = 2..6.
    """
    if not (math.isfinite(r_start) and math.isfinite(r_stop)):
        raise ValueError(f"r_start and r_stop must be finite, got {r_start}, {r_stop}")
    k_o = state.k_o
    r_pole = state.alpha / state.beta0_sq
    if r_start < 3.0 * r_pole:
        raise ValueError(f"r_start must be >= 3*r_o = {3.0 * r_pole}")
    if r_stop <= r_pole:
        raise ValueError(f"r_stop must stay right of the pole at {r_pole}")
    if r_stop >= r_start:
        raise ValueError(f"r_stop = {r_stop} must lie left of r_start = {r_start}: "
                         "shooting runs inward")
    u0 = math.exp(-k_o * r_start)
    if u0 < sys.float_info.min:
        raise ValueError(
            f"start value exp(-k_o*r_start) = exp(-{k_o * r_start:.6g}) underflows float64: "
            f"k_o*r_start must be at most {-math.log(sys.float_info.min):.2f}")

    nodes = [r_start]
    while nodes[-1] > r_stop:
        r = nodes[-1]
        nodes.append(max(r_stop, r - min(1.0 / k_o, _STEP_FRACTION * (r - r_pole))))
    nodes = np.array(nodes)
    mats, basis = _transfer(nodes[:-1], np.diff(nodes), k_o, r_pole)
    u, du = u0, -k_o * u0
    us, dus = [u], [du]
    for (a, b), (c, d) in mats.tolist():
        u, du = a * u + b * du, c * u + d * du
        us.append(u)
        dus.append(du)
    us, dus = np.array(us), np.array(dus)
    # each step's own solution: its start (u, u') times the unit solutions' coefficients
    steps = us[:-1, None] * basis[:, 0] + dus[:-1, None] * basis[:, 1]
    last = np.zeros((1, _TAYLOR_TERMS))
    last[0, 0] = us[-1]
    return ShootingProfile(r=nodes[::-1].copy(), u=us[::-1].copy(), du=dus[::-1].copy(),
                           coeffs=np.concatenate([last, steps[::-1]]))


def shooting_deviation(sol, wave) -> float:
    """Max relative deviation between shooting and Wronskian profiles.

    Shoots inward from 8*r_o (far enough that the pure-exponential start lies
    on the decaying branch to well below 1e-4) by Taylor steps (``shoot_inward``,
    within 6.2e-12 of Whittaker's W there), normalizes both profiles at 2*r_o,
    and compares on [1.2*r_o, 3*r_o].
    """
    st = sol.state
    r_o = st.r_o
    prof = shoot_inward(st, 8.0 * r_o, 1.2 * r_o * 0.99)
    mask = (wave.grid.samples >= 1.2 * r_o) & (wave.grid.samples <= 3.0 * r_o)
    rs = wave.grid.samples[mask]
    shot = prof.evaluate(rs)
    ref_idx = int(np.argmin(np.abs(rs - 2.0 * r_o)))
    shot_n = shot / shot[ref_idx]
    wron_n = wave.u_minus[mask] / wave.u_minus[mask][ref_idx]
    return float(np.max(np.abs(shot_n - wron_n) / np.abs(wron_n)))


# Largest n the battery checks.  Its thresholds do not set it: at Z = 1, 7 and
# 392, every check passes on honest numbers up to n = 12, where the residuals
# read at most 1.05e-7 for u_+ (threshold 1e-6) and 8.1e-7 for u_- (threshold
# 1e-4).
# What the battery lacks is an oracle left of r_o, where only the residual
# checks the wave (shooting_vs_wronskian compares [1.2, 3]*r_o).  The cap
# rises with that oracle, whose checks change the 17 check names that the
# benchmark's verify_battery and CI fix, in one edit of that name set.
SUITE_N_MAX = 3

# Samples of the battery's one wave per state, on make_radial_grid's (0, 3*r_o]:
# 1000 points per r_o, the density at which ode_residual's Numerov stencil
# reads the residuals quoted above.
SUITE_SAMPLES = 3000


def run_suite(z: int = 1, n_max: int = 3) -> dict:
    """Run the standard verification battery; returns a JSON-ready report.

    Every n in 1..n_max is checked; n_max above SUITE_N_MAX is rejected
    rather than silently checked only up to SUITE_N_MAX.
    """
    if not 1 <= n_max <= SUITE_N_MAX:
        raise ValueError(
            f"n_max must be between 1 and {SUITE_N_MAX}, got {n_max}: above n = "
            f"{SUITE_N_MAX} the battery has no oracle left of r_o"
        )
    checks = []

    def record(name, value, threshold, ok=None):
        passed = bool(value <= threshold) if ok is None else bool(ok)
        checks.append(
            {"name": name, "passed": passed, "value": value, "threshold": threshold}
        )

    record("energy_route_agreement", route_agreement(z, n_max), 1e-9)
    worst_term = max(termination_ratio(AtomSpec(z, n)) for n in range(1, n_max + 1))
    record("series_termination", worst_term, 1e-14)

    for n in range(1, n_max + 1):
        sol = build_series(AtomSpec(z, n))
        wave = sample_wave(sol, make_radial_grid(sol, samples=SUITE_SAMPLES))
        report = find_nodes(wave)
        loci = interior_zeros(sol) + u_minus_crossings(report)
        rep = ode_residual(wave.u_plus_vals, sol.state, wave.grid, loci)
        record(f"u_plus_residual_n{n}", rep.max_rel_residual, 1e-6)
        rep_m = ode_residual(wave.u_minus, sol.state, wave.grid, loci)
        record(f"u_minus_residual_n{n}", rep_m.max_rel_residual, 1e-4)

        # the quadrature itself, not the closed-form limits, must change sign
        r_o = sol.state.r_o
        left, right = u_minus(np.array([1.0 - 1e-4, 1.0 + 1e-4]) * r_o, sol)
        record(f"sign_change_at_ro_n{n}", 0.0, 0.5, ok=left * right < 0.0)
        record(f"shooting_vs_wronskian_n{n}", shooting_deviation(sol, wave), 1e-4)
        surfaces = [nd for nd in report.nodes if nd.kind is NodeKind.TRAJECTORY_SURFACE]
        located = (
            len(surfaces) == 1
            and abs(surfaces[0].radius - r_o) <= 1e-6 * r_o
        )
        record(f"trajectory_surface_n{n}", 0.0, 0.5, ok=located)

    return {
        "z": z,
        "n_max": n_max,
        "checks": checks,
        "passed": all(chk["passed"] for chk in checks),
    }


def u_minus_crossings(report: NodeReport) -> list[float]:
    """Radii where the decaying branch itself crosses zero: the report's plain zeros.

    find_nodes refines each on the exact u_-.  They are distinct from the
    zeros of u_+, ordinary points where u_- = -1/u_+' is finite and nonzero;
    ode_residual must skip them because the pointwise residual scale vanishes
    there.
    """
    return [nd.radius for nd in report.nodes if nd.kind is NodeKind.PLAIN_ZERO]


def route_agreement(z: int, n_max: int) -> float:
    """Max relative distance |scan - E|/|E| of the termination scan from derive_state's E.

    Both read the termination condition beta1 = 2*k_o*n, so this is no
    independent energy route: it measures the scan's bisection tolerance, and
    reads 3.18e-11 at Z = 1, n_max = 3.
    """
    e_lo = 1.25 * derive_state(AtomSpec(z, 1)).energy
    e_hi = 0.5 * derive_state(AtomSpec(z, n_max + 1)).energy
    scan = dict(quantization_scan(z, e_lo, e_hi))
    worst = 0.0
    for n in range(1, n_max + 1):
        energy = derive_state(AtomSpec(z, n)).energy
        worst = max(worst, abs(scan[n] - energy) / abs(energy))
    return worst
