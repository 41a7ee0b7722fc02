"""Monotone piecewise-cubic Hermite interpolation (PCHIP) in plain numpy.

A port of scipy's PchipInterpolator for 1-D real data.  The slopes follow
the same rule (Fritsch-Carlson weighted harmonic mean at interior points,
the shape-preserving one-sided three-point estimate at the ends), and the
local polynomials are stored and evaluated in the same power basis, so the
values agree with scipy's to rounding.  Calls with one float take a short
scalar path, since they sit inside bisection loops.
"""

from __future__ import annotations

import numpy as np


class PiecewisePolynomial:
    """sum_j coef[j, i] * (r - x[i])**j on [x[i], x[i+1]].

    Radii outside [x[0], x[-1]] use the first or last piece.
    """

    def __init__(self, x: np.ndarray, coef: np.ndarray):
        self.x = x
        self.coef = coef
        self._derivative = None

    def __call__(self, r):
        if isinstance(r, float):
            i = int(self.x.searchsorted(r, side="right")) - 1
            i = min(max(i, 0), len(self.x) - 2)
            s = float(r) - float(self.x[i])
            res, z = 0.0, 1.0
            for c in self.coef[:, i].tolist():
                res += c * z
                z *= s
            return res
        r = np.asarray(r, dtype=float)
        i = np.clip(np.searchsorted(self.x, r, side="right") - 1, 0, len(self.x) - 2)
        s = r - self.x[i]
        res, z = 0.0, 1.0
        for c in self.coef:
            res = res + c[i] * z
            z = z * s
        return res

    def derivative(self) -> PiecewisePolynomial:
        if self._derivative is None:
            powers = np.arange(1.0, len(self.coef))[:, None]
            self._derivative = PiecewisePolynomial(self.x, self.coef[1:] * powers)
        return self._derivative


def _edge_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope, clipped to preserve shape."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip(x, y) -> PiecewisePolynomial:
    """PCHIP interpolant of y(x) for strictly increasing x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
        raise ValueError("PCHIP needs matching 1-D x and y with at least 2 points")
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.empty(len(x))
    if len(h) == 1:
        d[:] = m[0]
    else:
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0.0) | (m[:-1] == 0.0)
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d[0] = _edge_slope(h[0], h[1], m[0], m[1])
        d[-1] = _edge_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return PiecewisePolynomial(x, np.stack((y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h)))
