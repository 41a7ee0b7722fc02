"""The numpy PCHIP port against scipy's PchipInterpolator."""

import numpy as np
import pytest

from vwave.pchip import pchip


def _data():
    # non-uniform abscissae; y changes sign, has flat steps and a plateau
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.uniform(0.05, 1.0, 120))
    y = np.sin(0.7 * x) * (1.0 + 0.3 * rng.standard_normal(120))
    y[30:36] = 0.25
    y[70:72] = -0.5
    y[90] = 0.0
    return x, y


def _rel(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300))


def test_matches_scipy_values_and_derivative():
    from scipy.interpolate import PchipInterpolator

    x, y = _data()
    ref, port = PchipInterpolator(x, y), pchip(x, y)
    xx = np.concatenate([x, np.linspace(x[0], x[-1], 5001)])
    assert _rel(port(xx), ref(xx)) <= 1e-13
    assert _rel(port.derivative()(xx), ref.derivative()(xx)) <= 1e-13


def test_scalar_call_equals_array_call():
    x, y = _data()
    itp = pchip(x, y)
    xx = np.linspace(x[0] - 1.0, x[-1] + 1.0, 301)
    for f in (itp, itp.derivative()):
        arr = f(xx)
        scal = np.array([f(float(r)) for r in xx])
        assert np.array_equal(arr, scal)
        assert isinstance(f(float(xx[5])), float)


def test_two_points_are_linear():
    itp = pchip([1.0, 3.0], [2.0, 6.0])
    assert itp(2.0) == pytest.approx(4.0, rel=1e-15)
    assert itp.derivative()(1.5) == pytest.approx(2.0, rel=1e-15)


def test_monotone_data_stays_monotone():
    x = np.array([0.0, 1.0, 1.5, 4.0, 4.2, 7.0])
    y = np.array([0.0, 0.1, 3.0, 3.1, 8.0, 8.0])
    vals = pchip(x, y)(np.linspace(0.0, 7.0, 2001))
    assert np.all(np.diff(vals) >= -1e-15)


def test_needs_two_points():
    with pytest.raises(ValueError, match="at least 2"):
        pchip([1.0], [2.0])
