"""The numpy cubic Hermite interpolant against scipy's CubicHermiteSpline."""

import numpy as np
import pytest

from vwave.hermite import hermite


def _data():
    # non-uniform abscissae; y and its slopes change sign, with a flat step
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.uniform(0.05, 1.0, 120))
    y = np.sin(0.7 * x) * (1.0 + 0.3 * rng.standard_normal(120))
    d = 0.7 * np.cos(0.7 * x) + 0.2 * rng.standard_normal(120)
    y[30:36] = 0.25
    d[30:36] = 0.0
    y[90] = 0.0
    return x, y, d


def _rel(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300))


def test_matches_scipy_values():
    from scipy.interpolate import CubicHermiteSpline

    x, y, d = _data()
    ref, port = CubicHermiteSpline(x, y, d), hermite(x, y, d)
    xx = np.concatenate([x, np.linspace(x[0], x[-1], 5001)])
    assert _rel(port(xx), ref(xx)) <= 1e-13


def test_scalar_call_equals_array_call():
    x, y, d = _data()
    itp = hermite(x, y, d)
    xx = np.linspace(x[0] - 1.0, x[-1] + 1.0, 301)
    arr = itp(xx)
    scal = np.array([itp(float(r)) for r in xx])
    assert np.array_equal(arr, scal)
    assert isinstance(itp(float(xx[5])), float)


def test_cubic_is_reproduced_exactly():
    def p(r):
        return 0.5 - 1.5 * r + 0.75 * r**2 - 0.25 * r**3

    def dp(r):
        return -1.5 + 1.5 * r - 0.75 * r**2

    x = np.array([-2.0, -0.5, 0.25, 1.0, 3.0, 3.5])
    itp = hermite(x, p(x), dp(x))
    xx = np.linspace(-2.0, 3.5, 1001)
    np.testing.assert_allclose(itp(xx), p(xx), rtol=0.0, atol=1e-13)


def test_two_points_are_linear():
    itp = hermite([1.0, 3.0], [2.0, 6.0], [2.0, 2.0])
    assert itp(2.0) == pytest.approx(4.0, rel=1e-15)


def test_needs_two_points_and_one_slope_each():
    with pytest.raises(ValueError, match="at least 2"):
        hermite([1.0], [2.0], [0.0])
    with pytest.raises(ValueError, match="matching"):
        hermite([1.0, 2.0], [2.0, 3.0], [0.0])
