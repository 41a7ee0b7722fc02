"""State derivation and the closed-form spectrum."""

import math

import pytest
from hypothesis import given, strategies as st

from vwave.units import AtomSpec, bohr_ratio, derive_state


@pytest.mark.parametrize("z", [1, 2, 3])
@pytest.mark.parametrize("n", range(1, 11))
def test_energy_closed_form(z, n):
    st_ = derive_state(AtomSpec(z, n))
    assert st_.energy == pytest.approx(-z**2 / (2.0 * n**2), rel=1e-12)


def test_hydrogen_ground_state_values():
    st_ = derive_state(AtomSpec(1, 1))
    assert st_.energy == -0.5  # hartree
    assert st_.r_o == 2.0  # bohr
    assert st_.k_o == 1.0
    assert st_.omega == 1.0
    assert st_.beta1 == 2.0


def test_n2_values():
    st_ = derive_state(AtomSpec(1, 2))
    assert st_.energy == -0.125
    assert st_.r_o == 8.0
    assert st_.k_o == 0.5


def test_beta1_is_energy_independent():
    # beta1 = 2*Z regardless of n
    for n in (1, 2, 5):
        assert derive_state(AtomSpec(3, n)).beta1 == pytest.approx(6.0, rel=1e-14)


@given(z=st.integers(1, 5), n=st.integers(1, 12))
def test_scaling_relations(z, n):
    st_ = derive_state(AtomSpec(z, n))
    assert st_.energy < 0
    assert st_.r_o == pytest.approx(2.0 * n**2 / z, rel=1e-13)
    assert st_.k_o == pytest.approx(z / n, rel=1e-13)
    assert st_.omega == pytest.approx(2.0 * abs(st_.energy), rel=1e-13)
    assert st_.beta0_sq == pytest.approx(st_.k_o**2, rel=1e-13)
    # the termination index recovers n exactly
    assert st_.beta1 / (2.0 * st_.k_o) == pytest.approx(n, rel=1e-12)


@given(z=st.integers(1, 5), n=st.integers(1, 12))
def test_surface_radius_is_twice_bohr(z, n):
    atom = AtomSpec(z, n)
    assert bohr_ratio(derive_state(atom), atom) == pytest.approx(2.0, rel=1e-14)


def test_atom_spec_validation():
    with pytest.raises(ValueError):
        AtomSpec(0, 1)
    with pytest.raises(ValueError):
        AtomSpec(1, 0)
    with pytest.raises(ValueError):
        AtomSpec(1, -3)


@pytest.mark.parametrize("z,n", [(1, 10**200), (10**200, 1), (1, 10**154)],
                         ids=["n=10**200", "Z=10**200", "n=10**154"])
def test_state_past_the_largest_float_is_refused(z, n):
    # Z^2 or 2*n^2 is past the largest float: 1e400 at 10**200, and 2e308 at
    # n = 10**154, where E would be -0.0 and k_o = 0
    with pytest.raises(ValueError, match=rf"\(Z={z}, n={n}\) is out of float64 range"):
        derive_state(AtomSpec(z, n))


def test_beta1_of_a_huge_z_is_finite():
    # k_o**2*alpha = 2e309 overflows before the division by beta0_sq; beta1 = 2Z
    st_ = derive_state(AtomSpec(10**103, 1))
    assert st_.beta1 == 2e103
    assert all(math.isfinite(x) for x in vars(st_).values())


def test_beta1_keeps_its_bits_where_it_was_finite():
    # the overflow fallback serves only beta1 = inf: every other state keeps
    # k_o**2*alpha/beta0_sq to the last bit
    for z in range(1, 200):
        for n in range(1, 80):
            st_ = derive_state(AtomSpec(z, n))
            assert st_.beta1 == st_.k_o**2 * st_.alpha / st_.beta0_sq
