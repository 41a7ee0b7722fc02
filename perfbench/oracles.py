"""Closed-form and high-precision oracles for the vwave benchmark.

Nothing in this module imports vwave.  Every reference value comes from a
closed form or from an integration that shares no code with the program:

* ``u_+ = e^{k_o r} s L^{(1)}_{n-1}(2 k_o s) / n`` with ``s = r_o - r``
  (NIST DLMF 18.5), and its interior zeros ``r_o - x_j / (2 k_o)`` from the
  generalized-Laguerre roots.
* For ``r > r_o``: ``u_- = -e^{-2n} n! W_{-n,1/2}(2 k_o (r - r_o))``
  (DLMF 13.14), evaluated with ``mpmath.whitw`` at 25 digits.
* For ``r < r_o``: the regular solution of the radial equation with
  ``u(0) = 0`` and ``u'(0) = 1/u_+(0)``, integrated outward with DOP853.
* One-sided limits at ``r_o``: ``+e^{-2n}`` on the left, ``-e^{-2n}`` on the
  right.

In ``rho = r / r_o`` the radial equation reads
``u'' = -4 n^2 rho / (1 - rho) u`` and ``u_-`` does not depend on Z, so the
expensive oracle values are cached per ``(n, rho)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath
import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import eval_genlaguerre, roots_genlaguerre

DPS = 25
U_PLUS_RTOL = 1e-9
U_MINUS_RTOL = 1e-4
LIMIT_RTOL = 1e-3
NODE_RTOL = 1e-5  # plain-zero radius tolerance, in units of r_o
SURFACE_RTOL = 1e-6  # trajectory-surface radius tolerance, in units of r_o
# Left of r_o, u_- has zeros; a pointwise relative deviation is measured
# against max(|oracle|, LEFT_FLOOR * max|oracle|) so it stays finite there.
LEFT_FLOOR = 1e-3
# Inner end of both ODE oracles, in rho: grids keep 1e-3 r_o away from r_o.
RO_GAP = 5e-4
RHO_FAR = 3.05


# -- closed forms --------------------------------------------------------------


def state(z: int, n: int) -> dict:
    """Closed-form scalars of state (Z, n) in atomic units."""
    return {
        "energy": -z * z / (2.0 * n * n),
        "r_o": 2.0 * n * n / z,
        "k_o": z / n,
        "omega": z * z / (n * n),
    }


def u_plus(z: int, n: int, r) -> np.ndarray:
    st = state(z, n)
    r = np.asarray(r, dtype=float)
    s = st["r_o"] - r
    k = st["k_o"]
    return np.exp(k * r) * s * eval_genlaguerre(n - 1, 1, 2.0 * k * s) / n


def u_plus_zeros(z: int, n: int) -> list[float]:
    """Zeros of u_+ strictly inside (0, r_o)."""
    if n == 1:
        return []
    st = state(z, n)
    x = roots_genlaguerre(n - 1, 1)[0]
    return sorted(float(st["r_o"] - xj / (2.0 * st["k_o"])) for xj in x)


def limit(n: int, side: int) -> float:
    """One-sided limit of u_- at r_o: side -1 is left (+e^{-2n}), +1 right."""
    return -side * math.exp(-2.0 * n)


# -- u_- right of r_o: Whittaker W --------------------------------------------


def whittaker_u_minus(n: int, rho: float, dps: int = DPS) -> float:
    """u_- at rho = r/r_o > 1 from mpmath.whitw at ``dps`` digits."""
    with mpmath.workdps(dps):
        x = 4 * n * (mpmath.mpf(rho) - 1)
        val = -mpmath.exp(-2 * n) * mpmath.factorial(n) * mpmath.whitw(-n, 0.5, x)
        return float(val)


@lru_cache(maxsize=None)
def _whittaker_cached(n: int, rho_key: float) -> float:
    return whittaker_u_minus(n, rho_key)


def u_minus_right(n: int, rho) -> np.ndarray:
    """Whittaker oracle at each rho > 1 (cached per n and rho to 12 digits)."""
    return np.array([_whittaker_cached(n, round(float(x), 12)) for x in np.atleast_1d(rho)])


# -- ODE oracles ----------------------------------------------------------------


def _rhs(n: int):
    c = 4.0 * n * n

    def rhs(rho, y):
        return [y[1], -c * rho / (1.0 - rho) * y[0]]

    return rhs


@lru_cache(maxsize=None)
def left_solution(n: int):
    """Dense DOP853 solution of the regular branch on [0, 1 - RO_GAP]."""
    f0 = float(eval_genlaguerre(n - 1, 1, 4.0 * n)) / n  # u_+(0) / r_o
    atol = 1e-16 * min(abs(1.0 / f0), math.exp(-2.0 * n))
    sol = solve_ivp(
        _rhs(n), (0.0, 1.0 - RO_GAP), [0.0, 1.0 / f0],
        method="DOP853", rtol=1e-12, atol=atol, dense_output=True,
    )
    if not sol.success:
        raise RuntimeError(f"left oracle integration failed for n={n}: {sol.message}")
    return sol.sol


@lru_cache(maxsize=None)
def right_solution(n: int):
    """Dense DOP853 solution of the recessive branch on [1 + RO_GAP, RHO_FAR].

    Integrated inward, which keeps the growing solution suppressed, from the
    Whittaker value and slope at RHO_FAR.
    """
    with mpmath.workdps(DPS):
        scale = -mpmath.exp(-2 * n) * mpmath.factorial(n)
        x0 = 4 * n * (mpmath.mpf(RHO_FAR) - 1)
        w0 = mpmath.whitw(-n, 0.5, x0)
        dw0 = mpmath.diff(lambda x: mpmath.whitw(-n, 0.5, x), x0)
        y0 = [float(scale * w0), float(scale * dw0 * 4 * n)]
    sol = solve_ivp(
        _rhs(n), (RHO_FAR, 1.0 + RO_GAP), y0,
        method="DOP853", rtol=1e-12, atol=1e-16 * abs(y0[0]), dense_output=True,
    )
    if not sol.success:
        raise RuntimeError(f"right oracle integration failed for n={n}: {sol.message}")
    return sol.sol


def u_minus_dense(n: int, rho) -> np.ndarray:
    """u_- at any rho outside (1 - RO_GAP, 1 + RO_GAP) from the ODE oracles."""
    rho = np.asarray(rho, dtype=float)
    out = np.empty_like(rho)
    left = rho < 1.0
    if left.any():
        out[left] = left_solution(n)(rho[left])[0]
    if (~left).any():
        out[~left] = right_solution(n)(rho[~left])[0]
    return out


@lru_cache(maxsize=None)
def plain_zeros_rho(n: int) -> tuple[float, ...]:
    """Zeros of u_- in (0, 1), in rho, from the left ODE oracle."""
    dense = left_solution(n)
    grid = np.linspace(1e-6, 1.0 - RO_GAP, 20000)
    vals = dense(grid)[0]
    out = []
    for i in np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]:
        out.append(brentq(lambda x: dense(x)[0], grid[i], grid[i + 1], xtol=1e-15, rtol=1e-14))
    return tuple(out)


# -- comparisons ---------------------------------------------------------------


@dataclass
class Verdict:
    """Outcome of one comparison: failures as text, deviations as numbers."""

    failures: list[str] = field(default_factory=list)
    deviations: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, name: str, value: float, tol: float) -> None:
        self.deviations[name] = max(self.deviations.get(name, 0.0), float(value))
        if not value <= tol:
            self.failures.append(f"{name} {value:.3g} > {tol:.3g}")

    def require(self, cond: bool, what: str) -> None:
        if not cond:
            self.failures.append(what)

    def merge(self, other: "Verdict") -> "Verdict":
        self.failures += other.failures
        for k, v in other.deviations.items():
            self.deviations[k] = max(self.deviations.get(k, 0.0), v)
        return self


def subsample(idx: np.ndarray, count: int) -> np.ndarray:
    """``count`` evenly spaced entries of ``idx``, always including both ends."""
    if len(idx) <= count:
        return idx
    return idx[np.unique(np.linspace(0, len(idx) - 1, count).round().astype(int))]


def check_wave(
    z: int, n: int, r, u_plus_prog, u_minus_prog, left_prog=None, right_prog=None,
    points: int = 12,
) -> Verdict:
    """Compare a sampled wave with the oracles on a subsample of each side of r_o.

    ``u_minus_dev`` is the worst relative deviation of u_- on either side; the
    left side is floored at LEFT_FLOOR of its largest oracle value.
    """
    v = Verdict()
    r = np.asarray(r, dtype=float)
    r_o = state(z, n)["r_o"]
    rho = r / r_o
    right_idx = subsample(np.nonzero(rho > 1.0)[0], points)
    left_idx = subsample(np.nonzero(rho < 1.0)[0], points)
    idx = np.concatenate([left_idx, right_idx])

    up_o = u_plus(z, n, r[idx])
    up_p = np.asarray(u_plus_prog, dtype=float)[idx]
    keep = np.abs(up_o) > 1e-6 * np.max(np.abs(up_o))  # away from zeros of u_+
    v.record("u_plus_dev", float(np.max(np.abs(up_p - up_o)[keep] / np.abs(up_o[keep]))), U_PLUS_RTOL)

    um = np.asarray(u_minus_prog, dtype=float)
    if len(right_idx):
        o = u_minus_right(n, rho[right_idx])
        v.record("u_minus_dev", float(np.max(np.abs(um[right_idx] - o) / np.abs(o))), U_MINUS_RTOL)
    if len(left_idx):
        o_all = u_minus_dense(n, rho[rho < 1.0])
        o = u_minus_dense(n, rho[left_idx])
        floor = LEFT_FLOOR * float(np.max(np.abs(o_all)))
        dev = np.abs(um[left_idx] - o) / np.maximum(np.abs(o), floor)
        v.record("u_minus_dev", float(np.max(dev)), U_MINUS_RTOL)
    for side, val in ((-1, left_prog), (1, right_prog)):
        if val is not None:
            ref = limit(n, side)
            v.record("limit_dev", abs(val - ref) / abs(ref), LIMIT_RTOL)
    return v


def check_nodes(z: int, n: int, radii, kinds, r_min: float) -> Verdict:
    """Plain zeros must be the oracle zeros of u_- in (r_min, r_o), one to one,
    and r_o must be the single trajectory surface."""
    v = Verdict()
    r_o = state(z, n)["r_o"]
    want = [x * r_o for x in plain_zeros_rho(n) if x * r_o > r_min]
    plain = sorted(r for r, k in zip(radii, kinds) if k == "plain_zero")
    surfaces = [r for r, k in zip(radii, kinds) if k == "trajectory_surface"]
    others = [k for k in kinds if k not in ("plain_zero", "trajectory_surface")]
    v.require(not others, f"unexpected node kinds {sorted(set(others))}")
    v.require(
        len(surfaces) == 1 and abs(surfaces[0] - r_o) <= SURFACE_RTOL * r_o,
        f"trajectory surfaces at {surfaces}, expected one at r_o={r_o}",
    )
    if len(plain) != len(want):
        v.require(False, f"{len(plain)} plain zeros, oracle has {len(want)}")
    elif want:
        v.record("node_dev", max(abs(a - b) for a, b in zip(plain, want)) / r_o, NODE_RTOL)
    return v


def check_state(z: int, n: int, energy: float, r_o: float, k_o: float, omega: float,
                bohr_ratio: float) -> Verdict:
    v = Verdict()
    st = state(z, n)
    for name, got, want in (("energy", energy, st["energy"]), ("r_o", r_o, st["r_o"]),
                            ("k_o", k_o, st["k_o"]), ("omega", omega, st["omega"]),
                            ("bohr_ratio", bohr_ratio, 2.0)):
        v.record(f"state_{name}_dev", abs(got - want) / abs(want), 1e-14)
    return v


def check_free(v_: float, m: float, t: float, wavelength: float, node_positions) -> Verdict:
    """de Broglie relation and moving-node positions for uniform motion."""
    v = Verdict()
    v.record("de_broglie_dev", abs(wavelength * m * abs(v_) - 2.0 * math.pi) / (2.0 * math.pi), 1e-14)
    omega = m * v_ * v_  # 2E/hbar with E = m v^2 / 2
    for b, x in enumerate(node_positions):
        want = v_ * (t + (math.pi / omega) * (b + 0.5))
        v.record("free_node_dev", abs(x - want) / max(abs(want), 1e-300), 1e-13)
    return v


# -- superpositions ------------------------------------------------------------


def radial_profile(z: int, n: int, r) -> np.ndarray:
    """Oracle R = u_-/r at radii outside the r_o exclusion gap."""
    r = np.asarray(r, dtype=float)
    r_o = state(z, n)["r_o"]
    return u_minus_dense(n, r / r_o) / r


def check_superposition(
    z: int, states, weights, rs, times, reported, degenerate=None,
) -> Verdict:
    """Node radii of a superposition against oracle sign changes on the grid ``rs``.

    Every reported radius must lie within one grid spacing of an interval
    ``[rs[i], rs[i+1]]`` over which the oracle superposition changes sign, and
    every such interval must have a reported radius within one spacing.

    The program evaluates each term by interpolating a sampled wave, which
    is good to about 1e-4 in general but only to a few 1e-3 within 2% of
    that state's r_o, where R has an s*ln(s) term.  A grid point where the
    oracle sum is smaller than the terms' magnitudes times ten times those
    accuracies has no resolved sign, and a mismatch next to it is not counted.
    """
    v = Verdict()
    rs = np.asarray(rs, dtype=float)
    h = float(np.median(np.diff(rs)))
    profiles = np.array([radial_profile(z, n, rs) for n in states])
    omegas = np.array([state(z, n)["omega"] for n in states])
    weights = np.asarray(weights, dtype=float)
    near_ro = np.array([np.abs(rs / state(z, n)["r_o"] - 1.0) < 0.02 for n in states])
    accuracy = np.where(near_ro, 2e-2, 1e-3)
    terms = [(weights * np.cos(omegas * t))[:, None] * profiles for t in times]
    values = [x.sum(axis=0) for x in terms]
    global_max = max(float(np.max(np.abs(x))) for x in values)
    for k, (t, vals, radii) in enumerate(zip(times, values, reported)):
        is_degenerate = float(np.max(np.abs(vals))) < 1e-9 * global_max
        if degenerate is not None:
            v.require(bool(degenerate[k]) == is_degenerate, f"slice {k} degenerate flag")
        if is_degenerate:
            continue
        unresolved = np.abs(vals) < (accuracy * np.abs(terms[k])).sum(axis=0)
        iv = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
        lo, hi = rs[iv] - h, rs[iv + 1] + h
        radii = np.asarray(radii, dtype=float)
        for r in radii:
            if not np.any((lo <= r) & (r <= hi)):
                j = int(np.clip(np.searchsorted(rs, r), 1, len(rs) - 1))
                v.require(bool(unresolved[j - 1] or unresolved[j]),
                          f"slice {k} t={t:.6g}: radius {r:.9g} has no oracle sign change")
        for i, a, b in zip(iv, lo, hi):
            if not np.any((a <= radii) & (radii <= b)):
                v.require(bool(unresolved[i] or unresolved[i + 1]),
                          f"slice {k} t={t:.6g}: oracle sign change near {rs[i]:.9g} missed")
    return v
