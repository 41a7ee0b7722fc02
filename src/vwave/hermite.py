"""Piecewise-cubic Hermite interpolation in plain numpy.

Each piece is the cubic matching the given values and slopes at its two
ends, in the power basis about its left end.  Calls with one float take a
short scalar path, since they sit inside bisection loops.
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


def hermite(x, y, dydx) -> PiecewisePolynomial:
    """Cubic Hermite interpolant of y(x) with slopes dydx, for strictly increasing x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = np.asarray(dydx, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.shape != d.shape or len(x) < 2:
        raise ValueError("hermite needs matching 1-D x, y and dydx with at least 2 points")
    h = np.diff(x)
    m = np.diff(y) / h
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return PiecewisePolynomial(x, np.stack((y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h)))
