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
A table built with the panels holds, per panel, all of the finite part outside
a radius's own partial panel, so a radius sums only that and adds one entry.

At an interior zero (an ordinary point of the ODE) c1 = 0, and u_- passes
smoothly through -1/u_+'(z).  In its window the finite part is T - c2/(r - z),
so u_- = u_+*T - c2*q with q = u_+/(r - z) the product form without that
zero's factor, and u_-' follows from the same terms: no 0*inf, no 0/0.  Only
r_o is singular: the ODE coefficient has a pole, c1 != 0, and u_- has
genuinely opposite one-sided limits -/+ 1/u_+'(r_o).  Its window takes the
same local form plus c1*u_+*ln|r - r_o|, so u_- and u_-' stay exact a hair to
either side.  Every evaluation goes through WronskianEvaluator.u_minus_many,
which refuses r = r_o exactly, radii that are not finite and positive, and
values that leave float64 (_check_range, which sample_wave applies too: the
default 3*r_o grid serves n <= 76, and at n = 77 R underflows at its far end).

Right of r_o no zero bounds the panels, so they are graded away from r_o's
window by factors of 3 up to the 1/k_o panel length.  They end at
r_t = r_o + 3/k_o, or r_o + (n/7)/k_o from n = 24 on.  From there on,
r' = r + t/(2*k_o) makes the integral to infinity a Gauss-Laguerre sum,
with P = exp(-k_o*r)*u_+:
u_- = exp(-k_o*r)*P(r)/(2*k_o) * sum_j w_j/P(r + t_j/(2*k_o))^2.  No cutoff.

A sampled wave (BoundWave) holds R = u_-/r and its exact slope at each sample
and no interpolant object: BoundWave.r_of reads the two samples around a radius
and evaluates their cubic Hermite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .series import SeriesSolution, gauss, interior_zeros, product_form, u_plus, u_plus_prime
from .units import AtomSpec, StateParams


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing sample radii, split into smooth segments at exclusion zones."""

    samples: np.ndarray
    exclusion_zones: tuple[tuple[float, float], ...]

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

    def segments(self) -> tuple[np.ndarray, ...]:
        """Maximal runs of samples not separated by an exclusion zone."""
        cuts = sorted(0.5 * (lo + hi) for lo, hi in self.exclusion_zones)
        parts = np.split(self.samples, np.searchsorted(self.samples, cuts))
        return tuple(seg for seg in parts if len(seg))


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
    return RadialGrid(samples=r, exclusion_zones=((lo, hi),))


# Gauss-Legendre points per panel
_QUAD_ORDER = 32
# radii per u_- quadrature block: bounds the (block, _QUAD_ORDER) integrand arrays
_BLOCK = 1024
# Within _NEAR of a window's half-width a zero's remainder series serves: each
# |x_k| is at most 0.45*_NEAR there, and _TERMS terms reach rounding.
_NEAR = 0.25
_TERMS = 18
# The panels end at r_t = r_o + _TAIL_START/k_o; from there a _LAGUERRE-node
# Gauss-Laguerre sum reaches rounding (a start of 1/k_o leaves 1.6e-9).  The
# zeros of u_+ next to r_o put poles of its integrand near t = -2*k_o*(r - r_o),
# and more of them as n grows: from n = _TAIL_LATE on, a start at 3/k_o misses
# Whittaker's W by 3.8e-13 (n = 24) up to 4.5e-11 (n = 38), so the sum starts
# at (n/7)/k_o, which keeps it within 2.6e-13 of W up to n = 80 (Z = 1).
_TAIL_START = 3.0
_TAIL_LATE = 24
_LAGUERRE = 40


@lru_cache(maxsize=None)
def _legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per process and order."""
    k = np.arange(1.0, order)
    return gauss(np.zeros(order), k / np.sqrt(4.0 * k**2 - 1.0), 2.0)


@lru_cache(maxsize=None)
def _laguerre() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes and weights for exp(-t) on [0, inf), built once per process.
    The far nodes' weights keep only their absolute digits, which the tail's bounded,
    decaying summand does not need."""
    k = np.arange(_LAGUERRE)
    return gauss(2.0 * k + 1.0, k[1:])


def _check_range(sol: SeriesSolution, r: np.ndarray, values: dict) -> None:
    """Refuse a state whose values at radii r leave float64: each must be finite, and
    u_+, u_- and R (not a slope, whose name ends in ') no nonzero subnormal, nor 0
    right of r_o, where they have no zero and a 0 is underflow."""
    for name, v in values.items():
        ok = np.isfinite(v)
        if not name.endswith("'"):
            ok &= (np.abs(v) >= np.finfo(float).tiny) | ((v == 0.0) & (r < sol.state.r_o))
        if not ok.all():
            i = np.argmin(ok)
            raise _out_of_range(sol, name, v[i], float(r[i]))


def _out_of_range(sol: SeriesSolution, name: str, v: float, r: float, at: str = "r"):
    """The refusal of a state whose value v of quantity name at radius r left float64."""
    what = "underflows" if np.isfinite(v) else "overflows"
    return ValueError(f"state (Z={sol.atom.z}, n={sol.atom.n}) is out of float64 range:"
                      f" {name} {what} at {at}={r:.6g} ({r / sol.state.r_o:.4g}*r_o)")


class WronskianEvaluator:
    """Evaluates u_- for one series solution, with cached panel integrals."""

    def __init__(self, sol: SeriesSolution):
        self.sol = sol
        self.k_o, self.r_o = sol.state.k_o, sol.state.r_o
        n = sol.atom.n
        self._r_t = self.r_o + (_TAIL_START if n < _TAIL_LATE else n / 7.0) / self.k_o
        # int_{r_t}^inf dr'/u_+^2 = u_-(r_t)/u_+(r_t)
        with np.errstate(all="ignore"):
            up_rt = u_plus(self._r_t, sol)
        if not (math.isfinite(up_rt) and up_rt != 0.0):
            raise _out_of_range(sol, "u_+", up_rt, self._r_t, "r_t")
        self._tail_rt = self._evaluate_tail(np.array([self._r_t]), False)[0][0] / up_rt
        self._gauss = _legendre(_QUAD_ORDER)
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
        with np.errstate(all="ignore"):
            self._d1 = u_plus_prime(z, self.sol)
            self._c2 = 1.0 / self._d1**2
        bad = ~(np.isfinite(self._c2) & (self._c2 != 0.0))
        if bad.any():
            i = np.argmax(bad)
            raise _out_of_range(self.sol, "1/u_+'(z)^2", self._c2[i], float(z[i]), "the zero z")
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

    def _regularized_integrand(self, x: np.ndarray, i: np.ndarray) -> np.ndarray:
        """1/u_+^2 at points x, one row per panel i, less the principal part in a window.

        Near the zero its remainder series gives that without cancellation; in the
        rest of the window the difference loses at most a factor 1/(0.45*_NEAR)^2.
        """
        kind, p = self._kind[i], self._pole[i]
        # rows near a zero are overwritten below, and u_+ may vanish on them
        with np.errstate(divide="ignore", over="ignore"):
            g = 1.0 / u_plus(x, self.sol) ** 2
        sub = np.flatnonzero(kind == 1)
        ps = p[sub, None]
        s = self._offset(x[sub], ps)
        g[sub] -= self._c2[ps] / s**2 + self._c1[ps] / s
        near = np.flatnonzero(kind == 2)
        pn = p[near, None]
        s, h = self._offset(x[near], pn), 0.0
        for row in self._rem[::-1]:  # Horner
            h = h * s + row[pn]
        g[near] = h
        return g

    # -- panel quadrature ----------------------------------------------------

    def _build_panels(self) -> None:
        """Gauss-Legendre panels from 0 to r_t and the finite part outside each one.

        Each zero breaks the axis at itself and _NEAR and 1 window half-width to
        either side; long stretches are subdivided so each panel stays accurate.
        Per panel, _pole is the nearest zero and _kind is 2 where its remainder
        series serves, 1 in the rest of its window, 0 outside.  _fp[i] is all of
        the finite part of u_-/u_+ but the partial panel of a radius in panel i,
        with F(s) = -c2/s + c1*ln|s| the subtracted parts' antiderivative: left of
        r_o, the panels from 0 and F(z+w) - F(z-w) of each window ending at or
        before the panel; right of r_o, the panels down to r_t (summed that way,
        free of a forward difference's cancellation) and the tail from r_t.  No
        window lies wholly right of such a panel, as every zero is <= r_o.  On a
        window panel it also holds F at the window's far edge: -F(z-w) left of
        r_o, +F(r_o+w) right of it.
        """
        pts = {0.0, self._r_t}
        for z, w in zip(self._z.tolist(), self._w.tolist()):
            pts.update((z - w, z - _NEAR * w, z, z + _NEAR * w, z + w))
        # right of r_o no zero bounds the panels: grade them away from r_o's
        # window by factors of 3 until they reach the 1/k_o panel length
        max_len, d = 1.0 / self.k_o, 3.0 * float(self._w[-1])
        while d < max_len:
            pts.add(self.r_o + d)
            d *= 3.0
        pts = sorted(pts)
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
        ends, p = self._z + self._w, np.arange(len(self._z))
        f_lo, f_hi = (-self._c2 / s + self._c1 * np.log(np.abs(s))
                      for s in (self._offset(self._z - self._w, p), self._offset(ends, p)))
        done = np.searchsorted(ends, br[:-1], side="right")
        fwd = np.cumsum(np.r_[0.0, panels[:-1]]) + np.cumsum(np.r_[0.0, f_hi - f_lo])[done]
        back = np.r_[np.cumsum(panels[:0:-1])[::-1], 0.0] + self._tail_rt
        left = mid < self.r_o
        own = np.where(left, -f_lo[self._pole], f_hi[self._pole])
        self._fp = np.where(left, fwd, back) + np.where(self._kind > 0, own, 0.0)

    def _panels(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Panel of each radius in (0, r_t); is it in a zero's window?"""
        i = np.searchsorted(self._breaks, r, side="right") - 1
        return i, self._kind[i] > 0

    def _evaluate(self, r: np.ndarray, slope: bool) -> tuple:
        """u_- and, if slope, u_-' at a block of admissible radii below r_t.

        u_- = u_+*I, I the finite part from 0 left of r_o and to infinity right
        of it, and u_-' = u_+'*I +/- 1/u_+.  I is the rest of r's panel plus _fp
        of the panel, one lookup.  In the window of a zero z, with s = r - z and
        sign +1 left of r_o, -1 right of it, that sum is T and I = T + sign*(-c2/s
        + c1*ln|s|): there u_- = u_+*T + sign*(c1*u_+*ln|s| - c2*q) with q = u_+/s,
        and u_-' = u_+'*T + sign*(u_+*T~ + c1*(u_+'*ln|s| + q) - c2*q'), T~ the
        regularized integrand.  Only at r_o is c1 != 0.
        """
        with np.errstate(over="ignore"):  # an overflowing u_+ is refused by _check_range
            up = u_plus(r, self.sol)
        i, zone = self._panels(r)
        p = self._pole[i]
        inner = r < self.r_o
        side = np.where(inner, 1.0, -1.0)
        # the rest of r's panel toward 0 left of r_o, toward r_t right of it:
        # one row per radius of a single Gauss-Legendre evaluation
        lo = np.where(inner, self._breaks[i], r)
        hi = np.where(inner, r, self._breaks[i + 1])
        (x, w), mid, half = self._gauss, 0.5 * (lo + hi)[:, None], 0.5 * (hi - lo)
        part = half * np.vecdot(self._regularized_integrand(mid + half[:, None] * x, i), w)
        integral = part + self._fp[i]
        um = up * integral
        pz, rz, sz, upz = p[zone], r[zone], side[zone], up[zone]
        c1, c2, t = self._c1[pz], self._c2[pz], integral[zone]
        # q = u_+/(r - z) = e*P/(s - s_j), e = -exp(k_o*r), s = r_o - r: the product
        # without z's factor (s itself at r_o), and q' = e*(k_o*P - dP/ds) with it
        pq, dpq = product_form(self.r_o - rz, self.sol, skip=len(self.sol.roots) - 1 - pz)
        e = -np.exp(self.k_o * rz)
        q = e * pq
        uz = upz * t - sz * (c2 * q)
        # r = z is allowed at an interior zero, where c1 = 0: take ln|s| at r_o only
        ro = pz == len(self._z) - 1
        log = np.log(np.abs(self._offset(rz[ro], pz[ro])))
        uz[ro] += sz[ro] * (c1[ro] * (upz[ro] * log))
        um[zone] = uz
        if not slope:
            return (um,)
        dup = u_plus_prime(r, self.sol)
        du = np.divide(dup * um + side, up, out=np.empty_like(r), where=~zone)
        dt = self._regularized_integrand(rz[:, None], i[zone])[:, 0]
        dz = dup[zone] * t + upz * (sz * dt) - sz * (c2 * (e * (self.k_o * pq - dpq)))
        dz[ro] += sz[ro] * (c1[ro] * (dup[zone][ro] * log + q[ro]))
        du[zone] = dz
        return um, du

    def _evaluate_tail(self, r: np.ndarray, slope: bool) -> tuple:
        """u_- and, if slope, u_-' at radii r >= r_t, from the Gauss-Laguerre sum alone.

        P(r + t/(2*k_o))/P(r) = prod_k (1 + t*c_k) >= 1, c_k = 1/(2*k_o*(s_k - s)) over
        the zeros s_k of P (0 among them), and 1/u_+ = exp(-k_o*r)/P: no e^(k_o*r) is formed.
        u_-' = (u_+'*u_- - 1)/u_+, with u_+'/u_+ = k_o - (dP/ds)/P = k_o*(1 + 2*sum_k c_k).
        """
        t, w = _laguerre()
        s = self.r_o - r
        c = 1.0 / (2.0 * self.k_o * (np.array((0.0,) + self.sol.roots) - s[:, None]))
        f = np.ones((len(r), len(t)))
        for ck in c.T:
            f *= 1.0 + t * ck[:, None]
        with np.errstate(over="ignore"):  # P overflows only far past where u_- underflows
            inv = np.exp(-self.k_o * r) / product_form(s, self.sol)[0]
        um = inv * (f**-2.0 @ w) / (2.0 * self.k_o)
        return (um, self.k_o * (1.0 + 2.0 * c.sum(axis=1)) * um - inv) if slope else (um,)

    # -- public surface ------------------------------------------------------

    def _check_admissible(self, r: np.ndarray) -> None:
        """Refuse radii that are not finite, not positive, or r_o itself."""
        bad = r[~(np.isfinite(r) & (r > 0.0))]
        if bad.size:
            raise ValueError(f"r must be positive and finite, got r={bad[0]}")
        if (r == self.r_o).any():
            left, right = self.limits_at_ro()
            raise ValueError(f"r={self.r_o} is r_o, the singular point of u_-: its one-sided"
                             f" limits are {left} from the left and {right} from the right")

    def u_minus_many(self, r, slope: bool = False) -> tuple:
        """(u_-,), or with slope (u_-, u_-'), at every radius of r: panels below r_t,
        the Gauss-Laguerre sum from it, _BLOCK radii at a time.

        Raises ValueError at a radius not finite, not positive or exactly r_o (naming
        the one-sided limits there), and where u_- or u_-' leaves float64 (_check_range).
        """
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
        _check_range(self.sol, flat, dict(zip(("u_-", "u_-'"), out)))
        return tuple(x.reshape(r.shape) for x in out)

    def limits_at_ro(self) -> tuple[float, float]:
        """One-sided limits -/+ 1/u_+'(r_o) of u_- at r_o, from the r_o pole data."""
        return -1.0 / float(self._d1[-1]), 1.0 / float(self._d1[-1])


@lru_cache(maxsize=32)
def _evaluator(sol: SeriesSolution) -> WronskianEvaluator:
    return WronskianEvaluator(sol)


def u_minus(r, sol: SeriesSolution):
    """Decaying branch u_- at r (scalar or array), with 32-point panels."""
    out = _evaluator(sol).u_minus_many(r)[0]
    return out if out.ndim else float(out)


def u_minus_and_slope(r, sol: SeriesSolution) -> tuple[np.ndarray, np.ndarray]:
    """u_- and its exact slope u_-' at radii r (an array), from one evaluation."""
    return _evaluator(sol).u_minus_many(r, slope=True)


@dataclass(frozen=True)
class BoundWave:
    """Sampled bound wave of one stationary state: a frozen value, so a copy made by
    dataclasses.replace interpolates its own samples."""

    atom: AtomSpec
    state: StateParams
    grid: RadialGrid
    u_minus: np.ndarray
    u_plus_vals: np.ndarray
    r_vals: np.ndarray  # R = u_- / r
    r_slopes: np.ndarray  # dR/dr
    left_limit_at_ro: float
    right_limit_at_ro: float

    def r_of(self, r: float) -> float:
        """R at radius r: the cubic Hermite, on R's exact slopes, of the two samples
        around r.  Rejects r outside [first, last sample] and r strictly between two
        samples that bound an exclusion zone; a radius on a sample is accepted."""
        x = self.grid.samples
        if not x[0] <= r <= x[-1]:
            raise ValueError(f"r={r} outside the sampled domain or inside an exclusion zone")
        i = min(int(x.searchsorted(r, side="right")), len(x) - 1)  # x[i-1] <= r < x[i]
        a, b = float(x[i - 1]), float(x[i])
        if r > a and any(a <= lo and hi <= b for lo, hi in self.grid.exclusion_zones):
            raise ValueError(f"r={r} outside the sampled domain or inside an exclusion zone")
        y0, y1 = float(self.r_vals[i - 1]), float(self.r_vals[i])
        d0, d1 = float(self.r_slopes[i - 1]), float(self.r_slopes[i])
        h, s = b - a, r - a
        m = (y1 - y0) / h
        t = (d0 + d1 - 2.0 * m) / h
        return y0 + d0 * s + ((m - d0) / h - t) * (s * s) + t / h * (s * s * s)


def sample_wave(sol: SeriesSolution, grid: RadialGrid) -> BoundWave:
    """Sample u_-, u_+, R = u_-/r and exact dR/dr on a grid respecting exclusion zones.

    u_-' comes with u_- from the evaluator, and R' = (u_-' - R)/r.  ValueError where
    u_+, u_-, R or a slope leaves float64 (_check_range).
    """
    ev = _evaluator(sol)
    r = grid.samples
    with np.errstate(over="ignore"):
        up = u_plus(r, sol)
    um, dum = ev.u_minus_many(r, slope=True)
    rv = um / r
    rs = (dum - rv) / r
    _check_range(sol, r, {"u_+": up, "R": rv, "R'": rs})  # u_minus_many checked u_-, u_-'
    left, right = ev.limits_at_ro()
    return BoundWave(atom=sol.atom, state=sol.state, grid=grid, u_minus=um, u_plus_vals=up,
                     r_vals=rv, r_slopes=rs, left_limit_at_ro=left, right_limit_at_ro=right)


def _check_superposition(waves: list[BoundWave], weights: list[float]) -> None:
    """ValueError unless there is at least one wave, one weight per wave and one nucleus."""
    if not waves:
        raise ValueError("need at least one wave")
    if len(weights) != len(waves):
        raise ValueError(f"{len(weights)} weights given for {len(waves)} states")
    zs = sorted({w.atom.z for w in waves})
    if len(zs) > 1:
        raise ValueError(f"waves mix nuclear charges {zs}")


def superpose(waves: list[BoundWave], weights: list[float], r: float, t: float) -> float:
    """V(r, t) = sum_i c_i * R_i(r) * cos(omega_i * t) of waves sharing one nucleus."""
    _check_superposition(waves, weights)
    return sum(c * w.r_of(r) * math.cos(w.state.omega * t) for c, w in zip(weights, waves))


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
