"""Zero detection and classification on sampled waves.

A locus where the wave vanishes (or jumps through zero) is a trajectory
surface when the radial slope changes sign across it; a plain crossing with a
single-signed slope carries no trajectory.  For stationary states the only
trajectory surface sits at r_o, where the one-sided limits of u_- have
opposite signs and the one-sided slopes diverge logarithmically with opposite
signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .series import build_series, interior_zeros, u_plus_prime
from .wronskian import BoundWave, RadialGrid, superpose, u_minus_and_slope


class NodeKind(str, Enum):
    TRAJECTORY_SURFACE = "trajectory_surface"
    PLAIN_ZERO = "plain_zero"


@dataclass(frozen=True)
class Node:
    radius: float
    kind: NodeKind
    left_slope_sign: int
    right_slope_sign: int
    value_left: float
    value_right: float
    discontinuous: bool


@dataclass(frozen=True)
class NodeReport:
    nodes: tuple[Node, ...]

    @property
    def radii(self) -> list[float]:
        return [n.radius for n in self.nodes]


def _bisect_zero(f, lo: float, hi: float, abs_tol: float) -> float:
    flo = f(lo)
    while hi - lo > abs_tol:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _node(radius: float, vl: float, vr: float, sl: float, sr: float, disc: bool = False) -> Node:
    """A node from its one-sided values and slopes; opposite slope signs make a surface."""
    sl, sr = (1 if x >= 0 else -1 for x in (sl, sr))
    kind = NodeKind.PLAIN_ZERO if sl == sr else NodeKind.TRAJECTORY_SURFACE
    return Node(radius, kind, sl, sr, vl, vr, disc)


def _refine(sol, lo: np.ndarray, hi: np.ndarray, vlo: np.ndarray, vhi: np.ndarray, tol: float):
    """Zeros of u_- in the brackets [lo, hi], across which R goes from vlo to vhi, and u_-' there.

    Each slope is the one the last Newton step took, at most tol from its zero.
    """
    x = lo - vlo * (hi - lo) / (vhi - vlo)  # secant points
    for _ in range(50):
        um, du = u_minus_and_slope(x, sol)
        on_left = np.sign(um) == np.sign(vlo)
        lo, hi = np.where(on_left, x, lo), np.where(on_left, hi, x)
        nx = x - um / du
        nx = np.where((lo <= nx) & (nx <= hi), nx, 0.5 * (lo + hi))  # bisect if Newton leaves
        x, step = nx, np.abs(nx - x)
        if np.all(step <= tol):
            return x, du
    raise ValueError("Newton refinement of the zeros of u_- took over 50 steps")


def find_nodes(wave: BoundWave) -> NodeReport:
    """Locate and classify every zero locus of the sampled R(r).

    The brackets come from the state, not from the samples: u_-(0) = 0, and by
    Sturm separation u_- has exactly one zero between consecutive zeros of
    u_+, z_1 < ... < z_(n-1), then r_o.  Their sides are R(z_j) =
    -1/(z_j*u_+'(z_j)) and L_-/r_o at r_o - 2e-9*r_o, and must alternate in
    sign (else ValueError).  All are refined at once by Newton steps on the
    exact u_- and u_-', bisecting where a step leaves its bracket, until every
    step is at most 1e-9*r_o.  Zeros outside the sampled span are not
    reported.  A node's values are R at the samples that bound it, L_-/r_o
    for a next sample past r_o; a bounding sample where R is exactly 0 is the
    node, between its neighbours.  Both slope signs are that of the exact
    dR/dr = u_-'/r at the zero: the samples' slopes near r_o carry its
    logarithmic divergence.  u_- cannot vanish with its slope: no touches.

    If the samples straddle r_o, it is a node with the limits L_-+/r_o as
    sides: u_+ ~ u_+'(r_o)*s times the finite part's c1*ln|s| term gives
    u_-(r_o + s) = L_-+*(1 + k_o^2*r_o*s*ln|s|) + O(s), whose slope diverges
    with sign -sign(L_-+).  The limits have opposite signs, so r_o is a
    trajectory surface, the only discontinuous node.
    """
    if len(wave.grid.samples) < 200:
        raise ValueError("wave must be sampled on at least 200 points")
    r, v = wave.grid.samples, wave.r_vals
    r_o = wave.state.r_o
    vl, vr = wave.left_limit_at_ro / r_o, wave.right_limit_at_ro / r_o
    sol = build_series(wave.atom)
    edges = np.r_[interior_zeros(sol), r_o - 2e-9 * r_o]
    sides = np.r_[-1.0 / (edges[:-1] * u_plus_prime(edges[:-1], sol)), vl]
    if np.any(np.sign(sides[:-1]) * np.sign(sides[1:]) >= 0.0):
        raise ValueError(f"state (Z={wave.atom.z}, n={wave.atom.n}): the values of R at "
                         "the zeros of u_+ and r_o do not alternate in sign")
    x, du = _refine(sol, edges[:-1], edges[1:], sides[:-1], sides[1:], 1e-9 * r_o)
    seen = (x >= r[0]) & (x <= r[-1])
    k = np.clip(np.searchsorted(r, x[seen]), 1, len(r) - 1)  # r[k - 1] < x <= r[k]
    m = np.where(v[k - 1] == 0.0, k - 1, k)
    at = v[m] == 0.0
    left, right = np.clip([np.where(at, m - 1, k - 1), np.where(at, m + 1, k)], 0, len(r) - 1)
    rows = np.c_[np.where(at, r[m], x[seen]), v[left], np.where(r[right] > r_o, vl, v[right])]
    nodes = [_node(*row, slope, slope) for row, slope in zip(rows.tolist(), du[seen].tolist())]
    if 0 < np.searchsorted(r, r_o) < len(r):  # the samples straddle r_o
        nodes.append(_node(r_o, vl, vr, -vl, -vr, True))
    nodes.sort(key=lambda n: n.radius)
    return NodeReport(nodes=tuple(nodes))


@dataclass(frozen=True)
class TimeSlice:
    t: float
    radii: tuple[float, ...]
    degenerate: bool


@dataclass(frozen=True)
class SuperpositionNodeTracks:
    slices: tuple[TimeSlice, ...]
    tracks: tuple[tuple[tuple[float, float], ...], ...]  # each track: ((t, r), ...)


def common_tracking_grid(waves: list[BoundWave], samples: int = 1000) -> RadialGrid:
    """Uniform grid on the radial domain shared by all waves.

    The span runs from the largest first sample to the smallest last sample
    among the waves, and points inside the gap any wave leaves around its r_o
    are dropped, so every wave can be interpolated at every grid point.
    """
    if not waves:
        raise ValueError("need at least one wave")
    lo = max(float(w.grid.samples[0]) for w in waves)
    hi = min(float(w.grid.samples[-1]) for w in waves)
    if not lo < hi:
        raise ValueError("waves share no radial domain")
    # exclude the actual gaps between each wave's sampled segments, which are
    # slightly wider than the nominal zones (they end at kept samples)
    zones = set()
    for w in waves:
        segs = w.grid.segments()
        for a, b in zip(segs, segs[1:]):
            zones.add((float(a[-1]), float(b[0])))
    zones = tuple(sorted(zones))
    raw = np.linspace(lo, hi, samples)
    keep = np.ones(len(raw), dtype=bool)
    for zlo, zhi in zones:
        keep &= ~((raw > zlo) & (raw < zhi))
    return RadialGrid(samples=raw[keep], exclusion_zones=zones, r_max=hi)


def track_superposition_nodes(
    waves: list[BoundWave],
    weights: list[float],
    times: list[float],
    radial_grid: RadialGrid,
) -> SuperpositionNodeTracks:
    """Nodes of the superposed wave at each time, linked into trajectories.

    Adjacent-time nodes are associated by nearest radius; a jump beyond
    0.1*r_o (smallest r_o among the states) starts a new track.
    A slice whose wave is uniformly below 1e-9 of the global amplitude is
    reported degenerate and contributes no nodes.  Weights that are all zero
    are refused: every slice of such a superposition is degenerate.
    """
    if len(times) < 2:
        raise ValueError("need at least 2 time samples")
    if not waves or len(waves) != len(weights):
        raise ValueError("need equally many waves and weights, at least one each")
    if not any(weights):
        raise ValueError("weights are all zero: the superposition vanishes everywhere")
    if len({w.atom.z for w in waves}) > 1:
        raise ValueError("waves mix nuclear charges")
    r_o_ref = min(w.state.r_o for w in waves)
    jump = 0.1 * r_o_ref
    rs = radial_grid.samples
    profiles = [np.array([w.r_of(float(r)) for r in rs]) for w in waves]

    def values_at(t: float) -> np.ndarray:
        acc = np.zeros(len(rs))
        for c, prof, w in zip(weights, profiles, waves):
            acc += c * prof * math.cos(w.state.omega * t)
        return acc

    max_abs = max(float(np.max(np.abs(values_at(t)))) for t in times)
    slices: list[TimeSlice] = []
    for t in times:
        vals = values_at(t)
        if float(np.max(np.abs(vals))) < 1e-9 * max_abs:
            slices.append(TimeSlice(t=t, radii=(), degenerate=True))
            continue
        radii = []
        for i in range(len(rs) - 1):
            a, b = float(vals[i]), float(vals[i + 1])
            if a == 0.0:
                radii.append(float(rs[i]))
            elif a * b < 0.0:
                # a sign change across an excluded neighborhood (some
                # state's r_o) cannot be bisected; report its center
                zone = [0.5 * (lo + hi) for lo, hi in radial_grid.exclusion_zones
                        if rs[i] <= lo and hi <= rs[i + 1]]
                radii.append(zone[0] if zone else _bisect_zero(
                    lambda r, _t=t: superpose(waves, weights, r, _t),
                    float(rs[i]), float(rs[i + 1]), 1e-8 * r_o_ref))
        slices.append(TimeSlice(t=t, radii=tuple(radii), degenerate=False))

    tracks: list[list[tuple[float, float]]] = []
    open_tracks: list[list[tuple[float, float]]] = []
    for sl in slices:
        matched_ids = set()
        remaining = list(sl.radii)
        for tr in open_tracks:
            if not remaining:
                break
            last_r = tr[-1][1]
            cand = min(remaining, key=lambda r: abs(r - last_r))
            if abs(cand - last_r) <= jump:
                tr.append((sl.t, cand))
                matched_ids.add(id(tr))
                remaining.remove(cand)
        tracks.extend(tr for tr in open_tracks if id(tr) not in matched_ids)
        open_tracks = [tr for tr in open_tracks if id(tr) in matched_ids]
        open_tracks += [[(sl.t, r)] for r in remaining]
    tracks.extend(open_tracks)
    tracks.sort(key=lambda tr: (tr[0][0], tr[0][1]))
    return SuperpositionNodeTracks(
        slices=tuple(slices),
        tracks=tuple(tuple(tr) for tr in tracks),
    )
