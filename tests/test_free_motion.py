"""Free uniform motion: travelling wave, moving nodes, de Broglie relation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vwave.free_motion import (
    free_params,
    gradient_condition_check,
    node_trajectory,
    quantized_frequencies,
    space_derivative,
    time_derivative,
    wave_value,
)


def test_basic_parameters_v1_m1():
    p = free_params(1.0, 1.0)
    assert p.energy == 0.5
    assert p.omega == 1.0
    assert p.wavelength == pytest.approx(2.0 * math.pi)
    assert p.amplitude == 1.0
    assert p.k1 == 1.0
    assert p.k2 == 1.0


def test_zero_velocity_rejected():
    with pytest.raises(ValueError):
        free_params(0.0)


def test_nonpositive_mass_rejected():
    with pytest.raises(ValueError):
        free_params(1.0, 0.0)


@pytest.mark.parametrize(
    "v,m",
    [
        (1e160, 1.0),  # v**2 overflows
        (-1e160, 1.0),
        (1e-200, 1.0),  # omega = m*v**2 underflows to 0
        (1e-200, 1e-200),  # m*|v| underflows to 0, which lambda divides by
        (1e-10, 1e-300),  # lambda overflows
        (2.0, 1e308),  # omega overflows
    ],
)
def test_parameters_past_float64_rejected(v, m):
    refusal = re.escape(f"v={v!r} and m={m!r} are out of float64 range")
    with pytest.raises(ValueError, match=refusal):
        free_params(v, m)


@pytest.mark.parametrize(
    "v,name",
    [
        (1e-155, "E"),  # E = 5e-311 and omega = 1e-310 are subnormal
        (1.5e-154, "E"),  # omega = 2.25e-308 is normal, E = 1.125e-308 is not
    ],
)
def test_subnormal_parameters_rejected(v, name):
    refusal = re.escape(f"v={v!r} and m=1.0 are out of float64 range: {name} is not")
    with pytest.raises(ValueError, match=refusal):
        free_params(v)


def test_finite_node_position_past_an_overflowing_pi_over_omega():
    # pi/omega = 6.5e307, and (pi/omega)*3.5 overflows, but v*(pi/omega)*3.5 does not
    p = free_params(2.2e-154)
    assert node_trajectory(p, 3, 0.0) == pytest.approx(3.5 * math.pi / 2.2e-154, rel=1e-15)
    assert node_trajectory(p, 2, 0.0) == pytest.approx(2.5 * math.pi / 2.2e-154, rel=1e-15)


def test_finite_node_positions_keep_their_last_bits():
    # the finite expression is kept as it was: v*t + (pi/(m*v))*2.5 reads ...988 here
    assert node_trajectory(free_params(1.5), 2, 0.0) == 5.235987755982989


def test_overflowing_node_position_names_its_branch():
    with pytest.raises(ValueError, match=re.escape("branch 0 at t=1e+308 overflows")):
        node_trajectory(free_params(2.0), 0, 1e308)
    # pi/(m*v) = 5.0e307: branch 3 is at 1.75e308, branch 4 past the largest float
    p = free_params(1.0, 6.28e-308)
    assert math.isfinite(node_trajectory(p, 3, 0.0))
    refusal = re.escape("v=1.0 and m=6.28e-308 are out of float64 range:"
                        " the position of branch 4 at t=0.0 overflows")
    with pytest.raises(ValueError, match=refusal):
        node_trajectory(p, 4, 0.0)


@given(
    v=st.floats(0.05, 20.0),
    m=st.floats(0.05, 50.0),
)
def test_de_broglie_relation(v, m):
    p = free_params(v, m)
    assert p.wavelength * m * v == pytest.approx(2.0 * math.pi, rel=1e-12)


@given(
    v=st.floats(0.1, 10.0),
    branch=st.integers(0, 5),
    t=st.floats(0.0, 50.0),
)
def test_wave_vanishes_on_node_trajectory(v, branch, t):
    p = free_params(v)
    x = node_trajectory(p, branch, t)
    assert abs(wave_value(x, t, p)) <= 1e-12 * p.amplitude


def test_nodes_move_at_particle_velocity():
    p = free_params(2.5)
    x0 = node_trajectory(p, 0, 0.0)
    x1 = node_trajectory(p, 0, 1.0)
    assert x1 - x0 == pytest.approx(2.5, rel=1e-14)


def test_node_spacing_is_half_wavelength():
    p = free_params(1.7)
    x0 = node_trajectory(p, 0, 0.0)
    x1 = node_trajectory(p, 1, 0.0)
    assert x1 - x0 == pytest.approx(0.5 * p.wavelength, rel=1e-12)


@pytest.mark.parametrize("v", [1.0, 2.0, 0.3])
def test_gradient_condition_at_node(v):
    p = free_params(v, 1.0)
    for branch in range(6):
        assert gradient_condition_check(p, 0.4, branch) <= 1e-12


def test_time_derivative_magnitude_at_node_equals_k1():
    p = free_params(1.3, 2.0)
    for branch in range(4):
        x = node_trajectory(p, branch, 0.7)
        assert abs(time_derivative(x, 0.7, p)) == pytest.approx(p.k1, rel=1e-12)


def test_space_derivative_magnitude_at_node():
    p = free_params(0.8, 1.5)
    x = node_trajectory(p, 2, 0.0)
    assert abs(space_derivative(x, 0.0, p)) == pytest.approx(p.k2 * p.v, rel=1e-12)


def test_quantized_frequencies_half_pi_offset():
    # time offset pi/2 gives base frequency 2 and omega_1 = 3
    freqs = quantized_frequencies(math.pi / 2.0, 3)
    assert freqs[0] == pytest.approx(3.0, rel=1e-14)
    spacings = np.diff(freqs)
    assert np.allclose(spacings, 2.0, rtol=1e-14)


def test_quantized_frequencies_rejects_zero_offset():
    with pytest.raises(ValueError):
        quantized_frequencies(0.0, 3)


def test_quantized_frequencies_rejects_no_branch():
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        quantized_frequencies(1.0, 0)


def test_phase_offset_recovers_sine_branch():
    p = free_params(1.0)
    x, t = 0.37, 0.11
    sine = p.amplitude * math.sin(p.omega * (x / p.v - t))
    assert wave_value(x, t, p, phase=-math.pi / 2.0) == pytest.approx(sine, rel=1e-12)
