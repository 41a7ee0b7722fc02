"""Decaying bound wave via the reduction-of-order (Wronskian) integral.

The second solution is

    u_-(r) = u_+(r) * { FP int_0^r dr'/u_+(r')^2      (r < r_o)
                        FP int_r^inf dr'/u_+(r')^2    (r > r_o) }

The integrand has a double pole at every zero of u_+.  Around each zero z we
subtract the principal part c2/(r'-z)^2 + c1/(r'-z) (Taylor coefficients of
u_+^2 at z), integrate the analytic remainder with Gauss-Legendre panels, and
add the subtracted parts back in closed form.  Using the antiderivative
-c2/(r'-z) + c1*ln|r'-z| straight through the pole is the finite-part
prescription; it reproduces the analytic second solution on both sides.

At interior zeros (ordinary points of the ODE) u_+'' vanishes, so c1 = 0 and
u_- = -1/u_+'(z) continues smoothly through them; there u_+ * integral is
0 * infinity, so near each one a Taylor step of the ODE gives u_- instead.
Only r_o is singular: the ODE coefficient has a pole, c1 != 0, and u_- has
genuinely opposite one-sided limits -/+ 1/u_+'(r_o); no continuity repair is
applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .hermite import hermite
from .series import SeriesSolution, interior_zeros, u_plus as _u_plus_series, u_plus_prime
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


# half-width, in units of r_o, of the neighborhood a sampled grid leaves out
# around r_o, and of the zone around each interior zero of u_+ where the
# evaluator takes u_- from a Taylor step instead of the direct product
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
    raw = np.linspace(r_max / samples, r_max, samples)
    if min(np.count_nonzero(raw <= lo), np.count_nonzero(raw >= hi)) < 2:
        # the second sample must reach down to lo, the second-to-last up to hi
        need = max(math.ceil(2.0 * r_max / lo), math.ceil(r_max / (r_max - hi)))
        raise ValueError(
            f"state (Z={sol.atom.z}, n={sol.atom.n}): {samples} samples leave fewer than "
            f"two on a side of r_o's neighborhood; use at least {need} samples"
        )
    keep = (raw <= lo) | (raw >= hi)
    return RadialGrid(samples=raw[keep], exclusion_zones=((lo, hi),), r_max=r_max)


# radii per u_- quadrature block: bounds the (block, quad_order) integrand arrays
_BLOCK = 1024
# terms of the Taylor step through an interior zone
_ZONE_TERMS = 30


@lru_cache(maxsize=16)
def _gauss_legendre(order: int):
    return np.polynomial.legendre.leggauss(order)


@dataclass(frozen=True)
class _PoleData:
    z: float
    window: float  # half-width of the subtraction window
    c2: float
    c1: float
    d1: float  # u_+'(z)


class WronskianEvaluator:
    """Evaluates u_- for one series solution, with cached panel integrals."""

    def __init__(self, sol: SeriesSolution, quad_order: int = 32):
        self.sol = sol
        self.quad_order = quad_order
        st = sol.state
        self.k_o = st.k_o
        self.r_o = st.r_o
        self._zeros = sorted(interior_zeros(sol) + [st.r_o])
        self._poles = [self._pole_data(z) for z in self._zeros]
        self._r_cut = self._find_cutoff()
        self._breaks = self._build_breakpoints()
        self._panel_cum, self._panel_cum_back = self._integrate_panels()
        # anchor each partial panel at its end farther from the nearest pole
        dist = np.abs(self._breaks[:, None] - np.array(self._zeros)).min(axis=1)
        self._anchor_left = dist[:-1] >= dist[1:]
        self._edges, self._steps = self._zone_steps()

    # -- local pole structure ------------------------------------------------

    def _pole_data(self, z: float) -> _PoleData:
        st = self.sol.state
        d1 = float(u_plus_prime(z, self.sol))
        if z == self.r_o:
            # u_+'' at r_o from the ODE: the coefficient pole gives
            # u_+'' -> k_o^2 * r_o * u_+'(r_o).
            d2 = 0.5 * st.k_o**2 * st.r_o * d1
        else:
            # ordinary point: u_+'' = -Q*u_+ = 0 at the zero
            d2 = 0.0
        c2 = 1.0 / d1**2
        c1 = -2.0 * d2 / d1**3
        neighbors = [0.0] + [x for x in self._zeros if x != z]
        window = 0.45 * min(abs(z - x) for x in neighbors)
        return _PoleData(z=z, window=window, c2=c2, c1=c1, d1=d1)

    def _find_cutoff(self) -> float:
        """Truncation radius where the integrand is 1e-16 of its value at 2*r_o."""
        ref = self._raw_integrand(np.array([2.0 * self.r_o]))[0]
        step = 0.5 / self.k_o
        r = 2.0 * self.r_o
        while self._raw_integrand(np.array([r]))[0] > 1e-16 * ref:
            r += step
        return r

    # -- integrand -----------------------------------------------------------

    def _u_plus(self, r: np.ndarray) -> np.ndarray:
        return np.asarray(_u_plus_series(r, self.sol))

    def _raw_integrand(self, r: np.ndarray) -> np.ndarray:
        return 1.0 / self._u_plus(r) ** 2

    def _regularized_integrand(self, r: np.ndarray) -> np.ndarray:
        """1/u_+^2 minus the principal parts inside each subtraction window."""
        g = self._raw_integrand(r)
        for p in self._poles:
            s = r - p.z
            inside = np.abs(s) < p.window
            if inside.any():
                si = s[inside]
                g[inside] -= p.c2 / si**2 + p.c1 / si
        return g

    def _singular_between(self, a, b) -> np.ndarray:
        """Closed-form integral of the subtracted parts over [a, b], elementwise.

        Clipped to each subtraction window and differenced pole by pole, so
        poles whose window lies entirely outside [a, b] contribute exactly
        zero (a global antiderivative difference would drown the tiny panel
        sums in rounding noise).
        """
        total = np.zeros(np.broadcast(a, b).shape)
        for p in self._poles:
            lo, hi = p.z - p.window, p.z + p.window
            # where a and b clip to the same window edge the two terms are
            # identical and cancel exactly; sa/sb == 0 only at a pole, which
            # the interior zones and the r_o check keep out
            sa = np.clip(a, lo, hi) - p.z
            sb = np.clip(b, lo, hi) - p.z
            total += (-p.c2 / sb + p.c1 * np.log(np.abs(sb))) - (
                -p.c2 / sa + p.c1 * np.log(np.abs(sa))
            )
        return total

    # -- panel quadrature ----------------------------------------------------

    def _build_breakpoints(self) -> np.ndarray:
        pts = {0.0, self._r_cut}
        for p in self._poles:
            pts.update((p.z - p.window, p.z, p.z + p.window))
        pts = sorted(pts)
        # subdivide long stretches so a single Gauss panel stays accurate
        max_len = 1.0 / self.k_o
        out = [pts[0]]
        for a, b in zip(pts, pts[1:]):
            k = max(1, math.ceil((b - a) / max_len))
            out.extend(a + (b - a) * i / k for i in range(1, k + 1))
        return np.array(out)

    def _panel_integral(self, a: float, b: float) -> float:
        x, w = _gauss_legendre(self.quad_order)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return half * float(np.dot(w, self._regularized_integrand(mid + half * x)))

    def _integrate_panels(self) -> tuple[np.ndarray, np.ndarray]:
        """Forward and backward cumulative integrals of the regularized integrand.

        forward[i] = int_0^breaks[i]; backward[i] = int_breaks[i]^r_cut.  The
        backward sums keep deep-tail evaluations free of the catastrophic
        cancellation a forward difference would incur.
        """
        panels = np.array(
            [self._panel_integral(a, b) for a, b in zip(self._breaks, self._breaks[1:])]
        )
        forward = np.concatenate([[0.0], np.cumsum(panels)])
        backward = np.concatenate([np.cumsum(panels[::-1])[::-1], [0.0]])
        return forward, backward

    def _partial_panels(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Forward and backward regularized integrals to each r in [0, r_cut).

        Returns (int_0^r, int_r^r_cut).  Each partial panel is one row of a
        single (len(r), quad_order) Gauss-Legendre evaluation, anchored at
        whichever end of r's panel sits farther from the nearest pole:
        quadrature nodes cluster at the partial panel's endpoints, and the
        regularized integrand loses accuracy right at a pole center (u_+ is
        evaluated by cancellation there).
        """
        i = np.searchsorted(self._breaks, r, side="right") - 1
        i = np.clip(i, 0, len(self._breaks) - 2)
        left = self._anchor_left[i]
        a = np.where(left, self._breaks[i], r)
        b = np.where(left, r, self._breaks[i + 1])
        x, w = _gauss_legendre(self.quad_order)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        g = self._regularized_integrand(mid[:, None] + half[:, None] * x)
        # vecdot reduces each row as np.dot does one panel in _panel_integral
        part = half * np.vecdot(g, w)
        forward = np.where(left, self._panel_cum[i] + part, self._panel_cum[i + 1] - part)
        backward = np.where(
            left, self._panel_cum_back[i] - part, part + self._panel_cum_back[i + 1]
        )
        return forward, backward

    @property
    def _tail(self) -> float:
        # pure-exponential estimate of the integral beyond the cutoff
        return self._raw_integrand(np.array([self._r_cut]))[0] / (2.0 * self.k_o)

    def _u_minus_direct(self, r: np.ndarray) -> np.ndarray:
        """u_+ times the integral; r < r_o integrates from 0, r > r_o to infinity."""
        integral = np.empty_like(r)
        near = r < self._r_cut
        rn = r[near]
        forward, backward = self._partial_panels(rn)
        inner = rn < self.r_o
        sing = self._singular_between(
            np.where(inner, 0.0, rn), np.where(inner, rn, self._r_cut)
        )
        integral[near] = np.where(inner, forward + sing, backward + sing + self._tail)
        integral[~near] = self._raw_integrand(r[~near]) / (2.0 * self.k_o)
        return self._u_plus(r) * integral

    def _slope_direct(self, r: np.ndarray, um: np.ndarray) -> np.ndarray:
        """u_-' = (u_+'*u_- +/- 1)/u_+, + left of r_o (integral from 0), - right."""
        side = np.where(r < self.r_o, 1.0, -1.0)
        return (u_plus_prime(r, self.sol) * um + side) / self._u_plus(r)

    def _zone_steps(self) -> tuple[np.ndarray, np.ndarray]:
        """Zone edges, left and right of each interior zero, and the Taylor step from each.

        A zone reaches w = EXCLUSION*r_o to each side of its zero, but at most
        0.3 of the way to the nearest of the origin, r_o and the other zeros:
        each step stays within 0.43 of its radius of convergence, r_o - e from
        its edge e.  The step is u(e + t) = sum_j b_j*(t/w)^j, b_0 and b_1 being
        u_-(e) and w*u_-'(e), the rest from (r_o - r)*u'' = -k_o^2*r*u.
        """
        w = EXCLUSION * self.r_o
        inner = [p for p in self._poles if p.z != self.r_o]
        half = [min(w, p.window / 1.5) for p in inner]  # window = 0.45 * distance
        edges = np.ravel([(p.z - h, p.z + h) for p, h in zip(inner, half)])
        b = np.zeros((_ZONE_TERMS, len(edges)))
        b[0] = self._u_minus_direct(edges)
        b[1] = w * self._slope_direct(edges, b[0])
        for j in range(_ZONE_TERMS - 2):
            prev = b[j - 1] if j else 0.0
            b[j + 2] = ((j + 1) * j * w * b[j + 1] - (self.k_o * w) ** 2 * (
                edges * b[j] + w * prev)) / ((self.r_o - edges) * (j + 2) * (j + 1))
        return edges, b.T

    def _zone_step(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Which radii lie inside an interior zone, and u_-, u_-' there from the nearer edge."""
        k = np.searchsorted(self._edges, r, side="right")
        zone = k % 2 == 1  # past a zone's left edge, short of its right one
        k, rz = k[zone], r[zone]
        j = np.where(rz - self._edges[k - 1] <= self._edges[k] - rz, k - 1, k)
        w = EXCLUSION * self.r_o
        powers = ((rz - self._edges[j]) / w)[:, None] ** np.arange(_ZONE_TERMS)
        b = self._steps[j]
        du = np.vecdot(powers[:, :-1], b[:, 1:] * np.arange(1, _ZONE_TERMS)) / w
        return zone, np.vecdot(powers, b), du

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

    def u_minus_many(self, r) -> np.ndarray:
        """The decaying branch at every radius of r, _BLOCK radii at a time.

        The Taylor step serves radii inside an interior zone.  Raises
        ValueError if any radius is not positive or sits on r_o (the message
        names the nearest admissible radius).
        """
        r = np.asarray(r, dtype=float)
        flat = r.ravel()
        out = np.empty_like(flat)
        for start in range(0, len(flat), _BLOCK):
            block, part = flat[start:start + _BLOCK], out[start:start + _BLOCK]
            self._check_admissible(block)
            zone, u, _ = self._zone_step(block)
            part[zone], part[~zone] = u, self._u_minus_direct(block[~zone])
        return out.reshape(r.shape)

    def wronskian_slope(self, r: np.ndarray, um: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """u_+ and u_-' at radii r where u_- is um; in an interior zone, the Taylor step's u_-'."""
        zone, _, du_zone = self._zone_step(r)
        du = np.empty_like(r)
        du[zone], du[~zone] = du_zone, self._slope_direct(r[~zone], um[~zone])
        return self._u_plus(r), du

    def u_minus(self, r: float) -> float:
        """The decaying branch at a single admissible radius."""
        return float(self.u_minus_many(r))

    def limits_at_ro(self) -> tuple[float, float]:
        """One-sided limits -/+ 1/u_+'(r_o) of u_- at r_o, from the r_o pole data."""
        d1 = next(p.d1 for p in self._poles if p.z == self.r_o)
        return -1.0 / d1, 1.0 / d1


@lru_cache(maxsize=32)
def _evaluator(sol: SeriesSolution) -> WronskianEvaluator:
    return WronskianEvaluator(sol)


def u_minus(r, sol: SeriesSolution):
    """Decaying branch u_- at r (scalar or array), with 32-point panels."""
    out = _evaluator(sol).u_minus_many(r)
    return out if out.ndim else float(out)


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


def wronskian_slope(r, um, sol: SeriesSolution) -> tuple[np.ndarray, np.ndarray]:
    """u_+ and the exact u_-' at radii r where u_- takes the values um."""
    return _evaluator(sol).wronskian_slope(np.asarray(r, dtype=float), np.asarray(um))


def sample_wave(sol: SeriesSolution, grid: RadialGrid) -> BoundWave:
    """Sample u_-, u_+, R = u_-/r and exact dR/dr on a grid respecting exclusion zones.

    u_-' comes from the evaluator's wronskian_slope, and R' = (u_-' - R)/r.
    """
    ev = _evaluator(sol)
    r = grid.samples
    um = ev.u_minus_many(r)
    up, dum = ev.wronskian_slope(r, um)
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
