"""Terminating series: coefficients, zeros, termination/quantization scan."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vwave import wronskian
from vwave.series import (
    build_series,
    gauss,
    interior_zeros,
    quantization_index,
    quantization_scan,
    recurrence_step,
    termination_ratio,
    u_plus,
    u_plus_prime,
)
from vwave.units import AtomSpec, derive_state


def test_known_coefficients():
    assert build_series(AtomSpec(1, 1)).coeffs == (1.0,)
    assert build_series(AtomSpec(1, 2)).coeffs == (1.0, -0.5)
    c3 = build_series(AtomSpec(1, 3)).coeffs
    assert c3[0] == 1.0
    assert c3[1] == pytest.approx(-2.0 / 3.0, rel=1e-15)
    assert c3[2] == pytest.approx(2.0 / 27.0, rel=1e-15)


@pytest.mark.parametrize("z", [1, 2, 3, 392, 1000, 10**6])
@pytest.mark.parametrize("n", range(1, 13))
def test_termination(z, n):
    assert termination_ratio(AtomSpec(z, n)) <= 1e-14


@given(z=st.integers(1, 3), n=st.integers(2, 12))
def test_coefficients_alternate_in_sign(z, n):
    coeffs = build_series(AtomSpec(z, n)).coeffs
    signs = [math.copysign(1.0, a) for a in coeffs]
    assert all(s1 == -s2 for s1, s2 in zip(signs, signs[1:]))


@pytest.mark.parametrize("n", range(1, 31))
def test_coeffs_match_the_closed_form(n):
    # a_{j+1} = (-1)^j * C(n, j+1) * (2*k_o)^j / (j! * n): P(s)/s = L^{(1)}_{n-1}(2*k_o*s)/n
    sol = build_series(AtomSpec(1, n))
    two_k = 2.0 * sol.state.k_o
    want = [(-1) ** j * math.comb(n, j + 1) * two_k**j / (math.factorial(j) * n) for j in range(n)]
    np.testing.assert_allclose(sol.coeffs, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("z", [1, 3])
@pytest.mark.parametrize("n", range(1, 31))
def test_u_plus_matches_the_laguerre_closed_form(z, n):
    # u_+ = exp(k_o*r) * s * L^{(1)}_{n-1}(2*k_o*s) / n with s = r_o - r, from scipy
    from scipy.special import eval_genlaguerre

    sol = build_series(AtomSpec(z, n))
    k_o, r_o = sol.state.k_o, sol.state.r_o

    def closed_form(r):
        s = r_o - r
        return np.exp(k_o * r) * s * eval_genlaguerre(n - 1, 1, 2.0 * k_o * s) / n

    left = np.linspace(0.0, r_o, 4001)[1:-1]
    want = closed_form(left)
    assert np.max(np.abs(u_plus(left, sol) - want)) <= 1e-12 * np.max(np.abs(want))
    right = np.linspace(r_o, 4.0 * r_o, 2001)[1:]
    np.testing.assert_allclose(u_plus(right, sol), closed_form(right), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", range(2, 31))
def test_interior_zeros_match_the_laguerre_roots(n):
    from scipy.special import roots_genlaguerre

    sol = build_series(AtomSpec(1, n))
    r_o = sol.state.r_o
    want = np.sort(r_o - roots_genlaguerre(n - 1, 1)[0] / (2.0 * sol.state.k_o))
    assert np.max(np.abs(np.array(interior_zeros(sol)) - want)) <= 1e-14 * r_o


def test_gauss_of_an_empty_matrix_is_empty():
    # n = 1: L^{(1)}_0 has no zeros, and its Jacobi matrix is 0 x 0
    nodes, weights = gauss(np.zeros(0), np.zeros(0))
    assert nodes.shape == weights.shape == (0,)
    assert build_series(AtomSpec(1, 1)).roots == ()


def test_legendre_rule_matches_leggauss_and_its_moments():
    x, w = wronskian._legendre(32)
    want_x, want_w = np.polynomial.legendre.leggauss(32)
    np.testing.assert_allclose(x, want_x, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(w, want_w, rtol=0.0, atol=2e-15)
    # exact to degree 63: int_{-1}^1 x^k dx, the error relative to int |x|^k
    for k in range(64):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(w @ x**k - exact) <= 5e-14 * 2.0 / (k + 1)


def test_laguerre_rule_matches_laggauss_and_its_low_moments():
    t, w = wronskian._laguerre()
    want_t, want_w = np.polynomial.laguerre.laggauss(wronskian._LAGUERRE)
    np.testing.assert_allclose(t, want_t, rtol=2e-13, atol=0.0)
    # the far nodes' weights (down to 1e-61) keep only absolute digits
    np.testing.assert_allclose(w, want_w, rtol=0.0, atol=2e-13)
    # int_0^inf t^k exp(-t) dt = k!
    for k in range(11):
        assert w @ t**k == pytest.approx(math.factorial(k), rel=2e-14)


def test_each_quadrature_rule_is_built_once():
    sol = build_series(AtomSpec(1, 3))
    ev = wronskian.WronskianEvaluator(sol)
    assert wronskian.WronskianEvaluator(sol)._gauss is ev._gauss
    assert ev._gauss is wronskian._legendre(wronskian._QUAD_ORDER)
    assert wronskian._laguerre() is wronskian._laguerre()


def test_u_plus_value_at_origin_n2():
    sol = build_series(AtomSpec(1, 2))
    # P(0) = 8 - 0.5*64 = -24
    assert u_plus(0.0, sol) == pytest.approx(-24.0, rel=1e-14)


def test_u_plus_zero_at_ro():
    for n in (1, 2, 3):
        sol = build_series(AtomSpec(1, n))
        assert abs(u_plus(sol.state.r_o, sol)) <= 1e-12


def test_u_plus_sign_change_across_ro():
    for n in (1, 2, 3):
        sol = build_series(AtomSpec(1, n))
        r_o = sol.state.r_o
        assert u_plus(r_o - 1e-6, sol) * u_plus(r_o + 1e-6, sol) < 0.0


def test_u_plus_prime_matches_finite_difference():
    sol = build_series(AtomSpec(1, 3))
    h = 1e-6
    for r in (2.0, 9.5, 20.0, 40.0):
        fd = (u_plus(r + h, sol) - u_plus(r - h, sol)) / (2 * h)
        assert u_plus_prime(r, sol) == pytest.approx(fd, rel=1e-8)


def test_interior_zeros_counts_and_values():
    assert interior_zeros(build_series(AtomSpec(1, 1))) == []
    z2 = interior_zeros(build_series(AtomSpec(1, 2)))
    assert len(z2) == 1
    assert z2[0] == pytest.approx(6.0, abs=1e-9)
    z3 = interior_zeros(build_series(AtomSpec(1, 3)))
    assert len(z3) == 2
    # roots of 1 - (2/3)s + (2/27)s^2 mapped through r = 18 - s
    s = np.roots([2.0 / 27.0, -2.0 / 3.0, 1.0])
    expect = sorted(18.0 - s)
    assert z3[0] == pytest.approx(expect[0], abs=1e-8)
    assert z3[1] == pytest.approx(expect[1], abs=1e-8)


def test_interior_zeros_are_plain_floats():
    for val in interior_zeros(build_series(AtomSpec(1, 3))):
        assert type(val) is float


@given(z=st.integers(1, 3), n=st.integers(2, 6))
@settings(deadline=None)
def test_no_zeros_beyond_ro(z, n):
    sol = build_series(AtomSpec(z, n))
    r = np.linspace(sol.state.r_o * 1.001, sol.state.r_o * 4.0, 400)
    vals = u_plus(r, sol)
    assert np.all(vals != 0.0)
    assert np.all(np.sign(vals) == np.sign(vals[0]))


def test_quantization_index_exact_at_eigenvalues():
    for n in (1, 2, 3, 6):
        e = derive_state(AtomSpec(1, n)).energy
        assert quantization_index(e, 1) == pytest.approx(n, rel=1e-13)


def test_quantization_index_rejects_positive_energy():
    with pytest.raises(ValueError):
        quantization_index(0.1, 1)


def test_quantization_scan_recovers_spectrum():
    found = dict(quantization_scan(1, -3.0, -0.004))
    for n in range(1, 7):
        exact = -1.0 / (2.0 * n**2)
        assert n in found
        assert found[n] == pytest.approx(exact, rel=1e-9)


def test_quantization_scan_narrow_window():
    # (-0.02, -0.01) contains nu in (5, 7.07): states n = 6 and n = 7
    found = dict(quantization_scan(1, -0.02, -0.01))
    assert set(found) == {6, 7}
    assert found[6] == pytest.approx(-1.0 / 72.0, rel=1e-9)


def test_quantization_scan_rejects_bad_range():
    with pytest.raises(ValueError):
        quantization_scan(1, -0.01, -0.02)
    with pytest.raises(ValueError):
        quantization_scan(1, -1.0, 0.5)


def test_recurrence_step_terminates_at_n():
    st_ = derive_state(AtomSpec(1, 4))
    # the factor (2*k_o*m - beta1) vanishes exactly at m = n
    assert recurrence_step(4, 1.0, st_.k_o, st_.beta1) == 0.0


def test_underflowing_series_is_refused_at_its_first_zero(monkeypatch):
    # at (Z, n) = (1, 10**6) a_111 underflows to 0, and so then does a_n: the
    # recurrence stops there rather than running on to m = n - 1
    from vwave import series

    calls = []

    def counted(*args):
        calls.append(None)
        return recurrence_step(*args)

    monkeypatch.setattr(series, "recurrence_step", counted)
    with pytest.raises(ValueError, match=r"\(Z=1, n=1000000\) is out of float64 range"):
        build_series(AtomSpec(1, 10**6))
    assert len(calls) < 1000
