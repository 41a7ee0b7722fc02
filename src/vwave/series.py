"""Terminating power-series solution of the radial equation.

The growing branch is u_+(r) = exp(k_o*r) * sum_{m=1..n} a_m*(r_o - r)^m with
coefficients from the two-term recurrence

    a_{m+1} = ((2*k_o*m - beta1) / ((m+1)*m)) * a_m,   a_1 = 1.

Because beta1 = 2*k_o*n for a bound state, a_{n+1} vanishes and the series
terminates after n terms.  Eigenvalues can also be found independently of the
closed form by scanning the termination condition beta1/(2*k_o) = n over E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import AtomSpec, StateParams, derive_state


@dataclass(frozen=True)
class SeriesSolution:
    """Truncated series coefficients a_1..a_n of the growing branch."""

    atom: AtomSpec
    state: StateParams
    coeffs: tuple[float, ...]


def recurrence_step(m: int, a_m: float, k_o: float, beta1: float) -> float:
    """One application of the coefficient recurrence: a_{m+1} from a_m."""
    return (2.0 * k_o * m - beta1) / ((m + 1) * m) * a_m


def build_series(atom: AtomSpec) -> SeriesSolution:
    """Compute the n terminating coefficients for state (Z, n)."""
    state = derive_state(atom)
    coeffs = [1.0]
    for m in range(1, atom.n):
        coeffs.append(recurrence_step(m, coeffs[-1], state.k_o, state.beta1))
    return SeriesSolution(atom=atom, state=state, coeffs=tuple(coeffs))


def _horner(coeffs, s: np.ndarray) -> np.ndarray:
    """sum_m coeffs[m] * s^m by Horner's rule."""
    acc = np.zeros_like(s)
    for a in reversed(coeffs):
        acc = acc * s + a
    return acc


def u_plus(r, sol: SeriesSolution):
    """Evaluate u_+ at r (scalar or array)."""
    r = np.asarray(r, dtype=float)
    s = sol.state.r_o - r
    # one factored-out power of s
    out = np.exp(sol.state.k_o * r) * s * _horner(sol.coeffs, s)
    return out if out.ndim else float(out)


def u_plus_prime(r, sol: SeriesSolution):
    """Analytic du_+/dr, evaluated by Horner in s = r_o - r for stability."""
    r = np.asarray(r, dtype=float)
    s = sol.state.r_o - r
    p = _horner(sol.coeffs, s) * s  # P(s) = sum a_m s^m
    # dP/ds = sum m a_m s^(m-1); dP/dr = -dP/ds
    dp = _horner([m * a for m, a in enumerate(sol.coeffs, start=1)], s)
    out = np.exp(sol.state.k_o * r) * (sol.state.k_o * p - dp)
    return out if out.ndim else float(out)


def interior_zeros(sol: SeriesSolution) -> list[float]:
    """Zeros of u_+ in r strictly between 0 and r_o, excluding r_o itself.

    Sign-brackets the reduced polynomial on a uniform 1000-point s-grid, then
    bisects to 1e-12 relative.  The coefficients alternate in sign, so there
    are no zeros for r > r_o.
    """
    r_o = sol.state.r_o
    # g(s) = sum a_m * s^(m-1); its roots are the zeros of u_+ besides r_o
    g = np.polynomial.Polynomial(list(sol.coeffs))
    if len(sol.coeffs) < 2:
        return []
    s_grid = np.linspace(r_o / 1000, r_o * (1.0 - 0.5 / 1000), 1000)
    vals = g(s_grid)
    roots_s = []
    for i in range(len(s_grid) - 1):
        lo, hi = s_grid[i], s_grid[i + 1]
        flo, fhi = vals[i], vals[i + 1]
        if flo == 0.0:
            roots_s.append(lo)
            continue
        if flo * fhi < 0.0:
            roots_s.append(_bisect(g, lo, hi))
    rs = sorted(float(r_o - s) for s in roots_s)
    return [r for r in rs if r > 0.0]


def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    while hi - lo > 1e-12 * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def termination_ratio(atom: AtomSpec) -> float:
    """|a_{n+1}| / max|a_m| after one extra recurrence application."""
    sol = build_series(atom)
    nxt = recurrence_step(atom.n, sol.coeffs[-1], sol.state.k_o, sol.state.beta1)
    return abs(nxt) / max(abs(a) for a in sol.coeffs)


def quantization_index(energy: float, z: int) -> float:
    """beta1/(2*k_o) evaluated at an arbitrary trial energy E < 0.

    The bound states are exactly the energies where this is a positive
    integer (the series-termination condition).
    """
    if energy >= 0.0:
        raise ValueError("trial energy must be negative")
    k_o = math.sqrt(-2.0 * energy)
    beta1 = 2.0 * z
    return beta1 / (2.0 * k_o)


def quantization_scan(z: int, e_lo: float, e_hi: float) -> list[tuple[int, float]]:
    """Find all bound energies in (e_lo, e_hi) by root-scanning the termination condition.

    For each integer n strictly inside the range of beta1/(2*k_o), bisect on
    beta1(E)/(2*k_o(E)) - n to 1e-10 relative.  This is the route independent
    of the closed-form spectrum.
    """
    if not (e_lo < e_hi < 0.0):
        raise ValueError("need e_lo < e_hi < 0")
    nu_lo = quantization_index(e_lo, z)
    nu_hi = quantization_index(e_hi, z)
    out = []
    n = math.floor(nu_lo) + 1
    while n < nu_hi:
        lo, hi = e_lo, e_hi
        # quantization_index is monotonically increasing in E.
        while (hi - lo) > 1e-10 * abs(lo):
            mid = 0.5 * (lo + hi)
            if quantization_index(mid, z) < n:
                lo = mid
            else:
                hi = mid
        out.append((n, 0.5 * (lo + hi)))
        n += 1
    return out
