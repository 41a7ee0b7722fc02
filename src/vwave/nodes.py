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

from .wronskian import BoundWave, RadialGrid, superpose


class NodeKind(str, Enum):
    TRAJECTORY_SURFACE = "trajectory_surface"
    PLAIN_ZERO = "plain_zero"
    DISCONTINUITY = "discontinuity"


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


def _sgn(x: float) -> int:
    return 1 if x >= 0 else -1


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


def _kind(slope_left: float, slope_right: float, discontinuous: bool) -> NodeKind:
    if _sgn(slope_left) != _sgn(slope_right):
        return NodeKind.TRAJECTORY_SURFACE
    if discontinuous:
        return NodeKind.DISCONTINUITY
    return NodeKind.PLAIN_ZERO


def find_nodes(wave: BoundWave) -> NodeReport:
    """Locate and classify every zero locus of the sampled R(r).

    Sign changes inside smooth segments are refined on the interpolant to
    1e-6*r_o.  Sign changes straddling an exclusion zone are reported at the
    zone center; at the r_o zone the stored one-sided limits are used, and a
    jump between them beyond 1e-6*max|R| is flagged as discontinuous.
    Touches (local |R| minima below tol = 1e-9*max|R|) are reported as well.
    """
    if len(wave.grid.samples) < 200:
        raise ValueError("wave must be sampled on at least 200 points")
    scale = float(np.max(np.abs(wave.r_vals)))
    tol = 1e-9 * scale
    r_o = wave.state.r_o
    loc_tol = 1e-6 * r_o
    jump_tol = 1e-6 * scale
    segs = wave.grid.segments()
    interps = wave.segment_interpolators()
    spacing = float(np.median(np.diff(wave.grid.samples)))
    delta = 2.0 * spacing
    nodes: list[Node] = []

    def probe(itp, seg, r):
        lo, hi = float(seg[0]), float(seg[-1])
        dv = itp.derivative()
        vl = float(itp(max(lo, r - delta)))
        vr = float(itp(min(hi, r + delta)))
        sl = float(dv(max(lo, r - 0.5 * delta)))
        sr = float(dv(min(hi, r + 0.5 * delta)))
        return vl, vr, sl, sr

    for seg, itp in zip(segs, interps):
        vals = itp(seg)
        for i in range(len(seg) - 1):
            a, b = float(vals[i]), float(vals[i + 1])
            if a == 0.0 or a * b >= 0.0:
                continue
            r_star = _bisect_zero(itp, float(seg[i]), float(seg[i + 1]), loc_tol)
            vl, vr, sl, sr = probe(itp, seg, r_star)
            nodes.append(
                Node(r_star, _kind(sl, sr, False), _sgn(sl), _sgn(sr), vl, vr, False)
            )
        absv = np.abs(vals)
        for i in range(1, len(seg) - 1):
            if absv[i] < tol and absv[i] <= absv[i - 1] and absv[i] <= absv[i + 1]:
                if vals[i - 1] * vals[i + 1] > 0.0:  # no crossing: genuine touch
                    r_star = float(seg[i])
                    vl, vr, sl, sr = probe(itp, seg, r_star)
                    nodes.append(
                        Node(r_star, _kind(sl, sr, False), _sgn(sl), _sgn(sr), vl, vr, False)
                    )

    for lo, hi in wave.grid.exclusion_zones:
        left_i = int(np.searchsorted(wave.grid.samples, lo)) - 1
        right_i = int(np.searchsorted(wave.grid.samples, hi))
        if left_i < 1 or right_i > len(wave.grid.samples) - 2:
            continue  # zone at the edge of the sampled domain
        center = 0.5 * (lo + hi)
        if abs(center - r_o) < loc_tol:
            vl = wave.left_limit_at_ro / r_o
            vr = wave.right_limit_at_ro / r_o
        else:
            vl = float(wave.r_vals[left_i])
            vr = float(wave.r_vals[right_i])
        if vl * vr >= 0.0 and not (abs(vl) < tol or abs(vr) < tol):
            continue
        sl = _gap_slope(wave, left_i, side=-1)
        sr = _gap_slope(wave, right_i, side=+1)
        disc = abs(vr - vl) > jump_tol
        nodes.append(Node(center, _kind(sl, sr, disc), _sgn(sl), _sgn(sr), vl, vr, disc))

    nodes.sort(key=lambda n: n.radius)
    return NodeReport(nodes=tuple(nodes))


def _gap_slope(wave: BoundWave, idx: int, side: int) -> float:
    """Finite-difference slope of R from the two samples adjacent to a gap."""
    r, v = wave.grid.samples, wave.r_vals
    if side < 0:
        return float((v[idx] - v[idx - 1]) / (r[idx] - r[idx - 1]))
    return float((v[idx + 1] - v[idx]) / (r[idx + 1] - r[idx]))


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
    among the waves, and points inside any wave's excluded neighborhood are
    dropped, so every wave can be interpolated at every grid point.
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
    reported degenerate and contributes no nodes.
    """
    if len(times) < 2:
        raise ValueError("need at least 2 time samples")
    if not waves or len(waves) != len(weights):
        raise ValueError("need equally many waves and weights, at least one each")
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
                # a sign change across an excluded neighborhood (singular
                # locus of some state) cannot be bisected; report its center
                zone = next(
                    (
                        0.5 * (lo + hi)
                        for lo, hi in radial_grid.exclusion_zones
                        if rs[i] <= lo and hi <= rs[i + 1]
                    ),
                    None,
                )
                if zone is not None:
                    radii.append(zone)
                    continue
                radii.append(
                    _bisect_zero(
                        lambda r, _t=t: superpose(waves, weights, r, _t),
                        float(rs[i]),
                        float(rs[i + 1]),
                        1e-8 * r_o_ref,
                    )
                )
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
