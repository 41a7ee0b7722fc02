"""Decaying bound wave via the reduction-of-order (Wronskian) integral.

The second solution is

    u_-(r) = u_+(r) * { FP int_0^r dr'/u_+(r')^2      (r < r_o)
                        FP int_r^inf dr'/u_+(r')^2    (r > r_o) }

The integrand has a double pole at every zero z of u_+.  In a window around
each we subtract the principal part c2/(r'-z)^2 + c1/(r'-z), integrate the
remainder with Gauss-Legendre panels, and add the subtracted parts back in
closed form: the antiderivative -c2/(r'-z) + c1*ln|r'-z| taken straight
through the pole is the finite-part prescription.  Next to z the remainder
is a power series built from the product form of u_+, so no digits cancel.

At an interior zero (an ordinary point of the ODE) c1 = 0, and u_- passes
smoothly through -1/u_+'(z).  In its window the finite part is T - c2/(r - z),
so u_- = u_+*T - c2*q with q = u_+/(r - z) the product form without that
zero's factor, and u_-' follows from the same terms: no 0*inf, no 0/0.  Only
r_o is singular: the ODE coefficient has a pole, c1 != 0, and u_- has
genuinely opposite one-sided limits -/+ 1/u_+'(r_o).

The panels end at r_t = r_o + 3/k_o.  From there on, r' = r + t/(2*k_o) makes
the integral to infinity a Gauss-Laguerre sum, with P = exp(-k_o*r)*u_+:
u_- = exp(-k_o*r)*P(r)/(2*k_o) * sum_j w_j/P(r + t_j/(2*k_o))^2.  No cutoff.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyval

from .hermite import hermite
from .series import (SeriesSolution, interior_zeros, product_form, u_plus as _u_plus_series,
                     u_plus_prime)
from .units import AtomSpec, StateParams


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing sample radii, split into smooth segments at exclusion zones."""

    samples: np.ndarray
    exclusion_zones: tuple[tuple[float, float], ...]
    r_max: float

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 1 or len(s) < 2:
            raise ValueError("grid needs at least 2 samples")
        if not np.all(np.diff(s) > 0.0) or s[0] <= 0.0:
            raise ValueError("samples must be strictly increasing and positive")
        for lo, hi in self.exclusion_zones:
            inside = (s > lo) & (s < hi)
            if inside.any():
                raise ValueError(f"samples fall inside exclusion zone ({lo}, {hi})")
        object.__setattr__(self, "samples", s)
        cuts = sorted(0.5 * (lo + hi) for lo, hi in self.exclusion_zones)
        parts = np.split(s, np.searchsorted(s, cuts))
        object.__setattr__(self, "_segments", tuple(seg for seg in parts if len(seg)))

    def segments(self) -> tuple[np.ndarray, ...]:
        """Maximal runs of samples not separated by an exclusion zone."""
        return self._segments


# half-width, in units of r_o, of the neighborhood a sampled grid leaves out around r_o
EXCLUSION = 1e-3


def make_radial_grid(
    sol: SeriesSolution, r_max_factor: float = 3.0, samples: int = 1000
) -> RadialGrid:
    """Uniform grid k*r_max/samples, k = 1..samples, minus the EXCLUSION*r_o neighborhood of r_o.

    Raises ValueError unless at least two samples fall on each side of that
    neighborhood; the message names the smallest sample count that works.
    """
    r_o = sol.state.r_o
    r_max = r_max_factor * r_o
    lo, hi = r_o - EXCLUSION * r_o, r_o + EXCLUSION * r_o
    if not r_max > hi:
        raise ValueError(f"r_max_factor must exceed 1 + EXCLUSION, got {r_max_factor}")
    # sides are decided in rho = r/r_o, free of r_o's rounding; an edge sample snaps to lo or hi
    rho = np.arange(1, samples + 1) * r_max_factor / samples
    left, right = rho <= 1.0 - EXCLUSION, rho >= 1.0 + EXCLUSION
    if min(np.count_nonzero(left), np.count_nonzero(right)) < 2:
        # the second sample must reach down to lo, the second-to-last up to hi
        need = max(math.ceil(2.0 * r_max / lo), math.ceil(r_max / (r_max - hi)))
        raise ValueError(f"state (Z={sol.atom.z}, n={sol.atom.n}): {samples} samples leave fewer"
                         f" than two on a side of r_o's neighborhood; use at least {need} samples")
    raw = np.linspace(r_max / samples, r_max, samples)
    r = np.where(left, np.minimum(raw, lo), np.maximum(raw, hi))[left | right]
    return RadialGrid(samples=r, exclusion_zones=((lo, hi),), r_max=r_max)


# radii per u_- quadrature block: bounds the (block, quad_order) integrand arrays
_BLOCK = 1024
# Within _NEAR of a window's half-width a zero's remainder series serves: each
# |x_k| is at most 0.45*_NEAR there, and _TERMS terms reach rounding.
_NEAR = 0.25
_TERMS = 18
# |u_+| beyond which u_+^2 overflows float64
_U_PLUS_MAX = math.sqrt(sys.float_info.max)
# The panels end at r_t = r_o + _TAIL_START/k_o; from there a _LAGUERRE-node
# Gauss-Laguerre sum reaches rounding (a start of 1/k_o leaves 1.6e-9).
_TAIL_START = 3.0
_LAGUERRE = 40


@lru_cache(maxsize=None)
def _laguerre() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes and weights, built once per process on first use."""
    return np.polynomial.laguerre.laggauss(_LAGUERRE)


class WronskianEvaluator:
    """Evaluates u_- for one series solution, with cached panel integrals."""

    def __init__(self, sol: SeriesSolution, quad_order: int = 32):
        self.sol = sol
        self.quad_order = quad_order
        self.k_o, self.r_o = sol.state.k_o, sol.state.r_o
        self._r_t = self.r_o + _TAIL_START / self.k_o
        # int_{r_t}^inf dr'/u_+^2 = u_-(r_t)/u_+(r_t)
        rt = np.array([self._r_t])
        self._tail_rt = self._evaluate_tail(rt, False)[0][0] / _u_plus_series(self._r_t, sol)
        self._gauss = np.polynomial.legendre.leggauss(quad_order)
        self._pole_data()
        self._build_panels()

    # -- local pole structure ------------------------------------------------

    def _pole_data(self) -> None:
        """Principal parts and remainder series at the zeros of u_+, ascending, r_o last.

        Near a zero z the product form gives 1/u_+^2 = c2*exp(L1*s + D)/s^2, s = r - z,
        D = -2*sum_k (log1p(x_k) - x_k), x_k = s/(z - Z_k) over the other zeros.  The
        residue c1 = c2*L1 is 0 at an interior zero (an ordinary point) and
        -c2*k_o^2*r_o at r_o, from the ODE.  The remainder 1/u_+^2 - c2/s^2 - c1/s =
        c2*(D + E(L1*s + D))/s^2, E(y) = expm1(y) - y, c2*expm1(D)/s^2 at an interior
        zero, is summed as one power series: D's coefficients are the power sums
        2*(-1)^j/j * sum_k (z - Z_k)^(-j), exp's follow by e_m = sum_j j*l_j*e_(m-j)/m,
        and row j of _rem is c2*e_(j+2).
        """
        self._z = z = np.array(interior_zeros(self.sol) + [self.r_o])
        self._depth = np.array(self.sol.roots[::-1] + (0.0,))  # s_j of each zero, 0 for r_o
        self._d1 = np.array([u_plus_prime(x, self.sol) for x in z.tolist()])
        self._c2 = 1.0 / self._d1**2
        l1 = np.zeros(len(z))
        l1[-1] = -self.k_o**2 * self.r_o
        self._c1 = l1 * self._c2
        diff = z[:, None] - z
        np.fill_diagonal(diff, np.inf)
        self._w = 0.45 * np.minimum(np.abs(diff).min(axis=1), z)  # subtraction windows
        j = np.arange(1, _TERMS + 2)
        log = 2.0 * (-1.0) ** j / j * ((1.0 / diff)[..., None] ** j).sum(axis=1)
        log[:, 0] = l1
        e = np.zeros((len(z), _TERMS + 2))
        e[:, 0] = 1.0
        for m in range(1, _TERMS + 2):
            e[:, m] = (j[:m] * log[:, :m] * e[:, m - 1::-1]).sum(axis=1) / m
        self._rem = (self._c2[:, None] * e[:, 2:]).T

    def _offset(self, r, p):
        """r - z_p as the product form sees it, -((r_o - r) - s_j): r - z_p itself would
        carry the rounding of z_p = r_o - s_j, large next to the zero."""
        return self._depth[p] - (self.r_o - r)

    # -- integrand -----------------------------------------------------------

    def _u_plus(self, r: np.ndarray) -> np.ndarray:
        """u_+ at radii r; ValueError where u_+^2 would overflow float64."""
        with np.errstate(over="ignore"):
            up = np.asarray(_u_plus_series(r, self.sol))
        ok = np.ravel(np.abs(up) < _U_PLUS_MAX)
        if not ok.all():
            x = float(np.ravel(r)[np.argmin(ok)])
            raise ValueError(f"state (Z={self.sol.atom.z}, n={self.sol.atom.n}) is out of float64"
                             f" range: u_+^2 overflows at r={x:.6g} ({x / self.r_o:.4g}*r_o)")
        return up

    def _regularized_integrand(self, x: np.ndarray, i: np.ndarray) -> np.ndarray:
        """1/u_+^2 at points x, one row per panel i, less the principal part in a window.

        Near the zero its remainder series gives that without cancellation; in the
        rest of the window the difference loses at most a factor 1/(0.45*_NEAR)^2.
        """
        kind, p = self._kind[i], self._pole[i]
        # rows near a zero are overwritten below, and u_+ may vanish on them
        with np.errstate(divide="ignore", over="ignore"):
            g = 1.0 / _u_plus_series(x, self.sol) ** 2
        sub = np.flatnonzero(kind == 1)
        ps = p[sub, None]
        s = self._offset(x[sub], ps)
        g[sub] -= self._c2[ps] / s**2 + self._c1[ps] / s
        near = np.flatnonzero(kind == 2)
        pn = p[near, None]
        g[near] = polyval(self._offset(x[near], pn), self._rem[:, pn], tensor=False)
        return g

    def _singular_between(self, a, b) -> np.ndarray:
        """Closed-form integral of the subtracted parts over [a, b], elementwise, each
        clipped to its window: a pole whose window lies outside [a, b] adds exactly 0,
        where a global antiderivative difference would drown small panel sums in rounding."""
        a, b = (np.clip(np.asarray(x)[..., None], self._z - self._w, self._z + self._w)
                for x in (a, b))
        p = np.arange(len(self._z))
        sa, sb = self._offset(a, p), self._offset(b, p)  # 0 only at a pole, never asked for
        part = -self._c2 / sb + self._c1 * np.log(np.abs(sb)) - (
            -self._c2 / sa + self._c1 * np.log(np.abs(sa)))
        return part.sum(axis=-1)

    # -- panel quadrature ----------------------------------------------------

    def _build_panels(self) -> None:
        """Gauss-Legendre panels from 0 to r_t and their cumulative integrals.

        Each zero breaks the axis at itself and _NEAR and 1 window half-width to
        either side; long stretches are subdivided so each panel stays accurate.
        Per panel, _pole is the nearest zero and _kind is 2 where its remainder
        series serves, 1 in the rest of its window, 0 outside.  _cum[i] is
        int_0^breaks[i], and _cum_back[i] = int_breaks[i]^r_t keeps the right
        side free of a forward difference's cancellation.
        """
        pts = {0.0, self._r_t}
        for z, w in zip(self._z.tolist(), self._w.tolist()):
            pts.update((z - w, z - _NEAR * w, z, z + _NEAR * w, z + w))
        pts = sorted(pts)
        max_len = 1.0 / self.k_o
        out = [pts[0]]
        for a, b in zip(pts, pts[1:]):
            k = max(1, math.ceil((b - a) / max_len))
            out.extend([a + (b - a) * i / k for i in range(1, k)] + [b])
        self._breaks = br = np.array(out)
        mid, half = 0.5 * (br[1:] + br[:-1]), 0.5 * np.diff(br)
        self._pole = np.searchsorted(0.5 * (self._z[1:] + self._z[:-1]), mid)
        dist = np.abs(mid - self._z[self._pole]) / self._w[self._pole]
        self._kind = np.where(dist < _NEAR, 2, np.where(dist < 1.0, 1, 0))
        x, w = self._gauss
        g = self._regularized_integrand(mid[:, None] + half[:, None] * x, np.arange(len(mid)))
        panels = half * np.vecdot(g, w)
        self._cum = np.concatenate([[0.0], np.cumsum(panels)])
        self._cum_back = np.concatenate([np.cumsum(panels[::-1])[::-1], [0.0]])

    def _panels(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Panel of each radius in (0, r_t); is it in an interior zero's window?"""
        i = np.searchsorted(self._breaks, r, side="right") - 1
        return i, (self._kind[i] > 0) & (self._pole[i] < len(self._z) - 1)

    def _evaluate(self, r: np.ndarray, slope: bool) -> tuple:
        """u_- and, if slope, u_-' at a block of admissible radii below r_t.

        u_- = u_+*I, I the finite part from 0 left of r_o and to infinity right
        of it, and u_-' = u_+'*I +/- 1/u_+.  In the window of an interior zero z,
        I = T - c2/(r - z): there u_- = u_+*T - c2*q with q = u_+/(r - z), and
        u_-' = u_+'*T + u_+*T' - c2*q', T' the regularized integrand.
        """
        up = self._u_plus(r)
        i, zone = self._panels(r)
        p = self._pole[i]
        # in a window the subtracted parts are summed up to its left edge e and
        # the zero's own part, c2/(e - z) - c2/(r - z), is split off
        b = np.where(zone, self._z[p] - self._w[p], r)
        inner = r < self.r_o
        # the rest of r's panel toward 0 left of r_o, toward r_t right of it:
        # one row per radius of a single Gauss-Legendre evaluation
        lo = np.where(inner, self._breaks[i], r)
        hi = np.where(inner, r, self._breaks[i + 1])
        (x, w), mid, half = self._gauss, 0.5 * (lo + hi)[:, None], 0.5 * (hi - lo)
        part = half * np.vecdot(self._regularized_integrand(mid + half[:, None] * x, i), w)
        integral = part + self._singular_between(
            np.where(inner, 0.0, r), np.where(inner, b, self._r_t))
        integral += np.where(inner, self._cum[i], self._cum_back[i + 1] + self._tail_rt)
        um = up * integral
        pz, rz = p[zone], r[zone]
        c2 = self._c2[pz]
        t = integral[zone] + c2 / self._offset(b[zone], pz)
        # q = u_+/(r - z) = e*P/(s - s_j), e = -exp(k_o*r), s = r_o - r: the product
        # without z's factor, and q' = e*(k_o*P - dP/ds) with it
        pq, dpq = product_form(self.r_o - rz, self.sol, skip=len(self.sol.roots) - 1 - pz)
        e = -np.exp(self.k_o * rz)
        um[zone] = up[zone] * t - c2 * (e * pq)
        if not slope:
            return (um,)
        dup = u_plus_prime(r, self.sol)
        side = np.where(inner, 1.0, -1.0)
        du = np.divide(dup * um + side, up, out=np.empty_like(r), where=~zone)
        dt = self._regularized_integrand(rz[:, None], i[zone])[:, 0]
        du[zone] = dup[zone] * t + up[zone] * dt - c2 * (e * (self.k_o * pq - dpq))
        return um, du

    def _evaluate_tail(self, r: np.ndarray, slope: bool) -> tuple:
        """u_- and, if slope, u_-' at radii r >= r_t, from the Gauss-Laguerre sum alone.

        P(r + t/(2*k_o))/P(r) = prod_k (1 + t*c_k) >= 1, c_k = 1/(2*k_o*(s_k - s)) over
        the zeros s_k of P (0 among them), and 1/u_+ = exp(-k_o*r)/P: nothing overflows.
        u_-' = (u_+'*u_- - 1)/u_+, with u_+'/u_+ = k_o - (dP/ds)/P = k_o*(1 + 2*sum_k c_k).
        """
        t, w = _laguerre()
        s = self.r_o - r
        c = 1.0 / (2.0 * self.k_o * (np.array((0.0,) + self.sol.roots) - s[:, None]))
        f = np.ones((len(r), len(t)))
        for ck in c.T:
            f *= 1.0 + t * ck[:, None]
        inv = np.exp(-self.k_o * r) / product_form(s, self.sol)[0]
        um = inv * (f**-2.0 @ w) / (2.0 * self.k_o)
        return (um, self.k_o * (1.0 + 2.0 * c.sum(axis=1)) * um - inv) if slope else (um,)

    # -- public surface ------------------------------------------------------

    def nearest_admissible(self, r: float) -> float:
        """r itself, or a radius just outside r's 1e-9*r_o neighborhood of r_o."""
        eps = 1e-9 * self.r_o
        if abs(r - self.r_o) >= eps:
            return r
        # 2*eps so rounding in r_o + offset cannot land back inside the neighborhood
        return self.r_o + math.copysign(2.0 * eps, r - self.r_o if r != self.r_o else 1.0)

    def _check_admissible(self, r: np.ndarray) -> None:
        """Reject radii at or left of 0 and within 1e-9*r_o of r_o."""
        bad = r[r <= 0.0]
        if bad.size:
            raise ValueError(f"r must be positive, got r={bad[0]}")
        singular = np.abs(r - self.r_o) < 1e-9 * self.r_o
        if singular.any():
            x = float(r[singular][0])
            raise ValueError(
                f"r={x} is a singular point of the construction; "
                f"nearest admissible r is {self.nearest_admissible(x)}"
            )

    def _evaluate_many(self, r, slope: bool) -> tuple:
        """u_- and, if slope, u_-' at every radius of r: panels below r_t, the sum from it."""
        r = np.asarray(r, dtype=float)
        flat = r.ravel()
        # one array per output, so that keeping one keeps no other alive
        out = [np.empty(len(flat)) for _ in range(2 if slope else 1)]
        for start in range(0, len(flat), _BLOCK):
            block = flat[start:start + _BLOCK]
            self._check_admissible(block)
            far = block >= self._r_t
            for part, evaluate in ((~far, self._evaluate), (far, self._evaluate_tail)):
                if part.any():
                    for x, y in zip(out, evaluate(block[part], slope)):
                        x[start:start + _BLOCK][part] = y
        return tuple(x.reshape(r.shape) for x in out)

    def u_minus_many(self, r) -> np.ndarray:
        """The decaying branch at every radius of r, _BLOCK radii at a time.

        Raises ValueError if any radius is not positive or sits on r_o (the
        message names the nearest admissible radius).
        """
        return self._evaluate_many(r, slope=False)[0]

    def u_minus(self, r: float) -> float:
        """The decaying branch at a single admissible radius."""
        return float(self.u_minus_many(r))

    def limits_at_ro(self) -> tuple[float, float]:
        """One-sided limits -/+ 1/u_+'(r_o) of u_- at r_o, from the r_o pole data."""
        return -1.0 / float(self._d1[-1]), 1.0 / float(self._d1[-1])


@lru_cache(maxsize=32)
def _evaluator(sol: SeriesSolution) -> WronskianEvaluator:
    return WronskianEvaluator(sol)


def u_minus(r, sol: SeriesSolution):
    """Decaying branch u_- at r (scalar or array), with 32-point panels."""
    out = _evaluator(sol).u_minus_many(r)
    return out if out.ndim else float(out)


def u_minus_and_slope(r, sol: SeriesSolution) -> tuple[np.ndarray, np.ndarray]:
    """u_- and its exact slope u_-' at radii r (an array), from one evaluation."""
    return _evaluator(sol)._evaluate_many(r, slope=True)


@dataclass
class BoundWave:
    """Sampled bound wave of one stationary state."""

    atom: AtomSpec
    state: StateParams
    grid: RadialGrid
    u_minus: np.ndarray
    u_plus_vals: np.ndarray
    r_vals: np.ndarray  # R = u_- / r
    r_slopes: np.ndarray  # dR/dr
    left_limit_at_ro: float
    right_limit_at_ro: float
    _interp: list = field(default_factory=list, repr=False)

    def segment_interpolators(self):
        """Cubic Hermite interpolants of R on its exact slopes, one per smooth segment."""
        if not self._interp:
            segs = self.grid.segments()
            cuts = np.cumsum([len(seg) for seg in segs])[:-1]
            for seg, v, d in zip(segs, np.split(self.r_vals, cuts), np.split(self.r_slopes, cuts)):
                self._interp.append(hermite(seg, v, d))
        return self._interp

    def r_of(self, r: float) -> float:
        """Interpolated R at radius r; rejects radii outside the sampled domain."""
        for seg, itp in zip(self.grid.segments(), self.segment_interpolators()):
            if seg[0] <= r <= seg[-1]:
                return float(itp(r))
        raise ValueError(f"r={r} outside the sampled domain or inside an exclusion zone")


def sample_wave(sol: SeriesSolution, grid: RadialGrid) -> BoundWave:
    """Sample u_-, u_+, R = u_-/r and exact dR/dr on a grid respecting exclusion zones.

    u_-' comes with u_- from the evaluator, and R' = (u_-' - R)/r.
    """
    ev = _evaluator(sol)
    r = grid.samples
    up = ev._u_plus(r)
    um, dum = ev._evaluate_many(r, slope=True)
    rv = um / r
    left, right = ev.limits_at_ro()
    return BoundWave(
        atom=sol.atom,
        state=sol.state,
        grid=grid,
        u_minus=um,
        u_plus_vals=up,
        r_vals=rv,
        r_slopes=(dum - rv) / r,
        left_limit_at_ro=left,
        right_limit_at_ro=right,
    )


def wave_full(r: float, t: float, wave: BoundWave) -> float:
    """Time-dependent wave V(r, t) = u_-(r) * cos(omega*t) / r."""
    return wave.r_of(r) * math.cos(wave.state.omega * t)


def superpose(waves: list[BoundWave], weights: list[float], r: float, t: float) -> float:
    """Weighted sum of full waves sharing one nucleus."""
    if not waves or len(waves) != len(weights):
        raise ValueError("need equally many waves and weights, at least one each")
    zs = {w.atom.z for w in waves}
    if len(zs) > 1:
        raise ValueError(f"waves mix nuclear charges {sorted(zs)}")
    return sum(c * wave_full(r, t, w) for c, w in zip(weights, waves))


def tail_decay_rate(wave: BoundWave) -> float:
    """Least-squares slope of log|u_-| over [1.5*r_o, 3*r_o].

    Note: the decaying branch carries an exact algebraic factor
    (r - r_o)^(-n) on top of exp(-k_o*r), so on this near-field window the
    fitted slope is systematically steeper than -k_o.
    """
    r_o = wave.state.r_o
    mask = (wave.grid.samples >= 1.5 * r_o) & (wave.grid.samples <= 3.0 * r_o)
    r = wave.grid.samples[mask]
    y = np.log(np.abs(wave.u_minus[mask]))
    slope = np.polyfit(r, y, 1)[0]
    return float(slope)
