"""Bound-state parameter derivation for hydrogen-like atoms.

Everything is in atomic units (hbar = m_e = e = 1): energies in hartree,
lengths in bohr.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class AtomSpec:
    """Nuclear charge and principal number of a bound state."""

    z: int
    n: int

    def __post_init__(self):
        if not isinstance(self.z, int) or self.z < 1:
            raise ValueError(f"z must be an integer >= 1, got {self.z!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")


@dataclass(frozen=True)
class StateParams:
    """All scalar parameters of a spherically symmetric bound state.

    energy is in hartree (negative), r_o in bohr.  omega uses |E|, so
    omega = 2|E|.
    """

    energy: float
    r_o: float
    k_o: float
    omega: float
    beta0_sq: float
    alpha: float
    beta1: float


def derive_state(atom: AtomSpec) -> StateParams:
    """Derive the full parameter set of state (Z, n); ValueError where Z^2 or 2*n^2,
    formed as floats below, is past the largest float."""
    z, n = atom.z, atom.n
    if max(z**2, 2 * n**2) > sys.float_info.max:
        raise ValueError(f"state (Z={z}, n={n}) is out of float64 range:"
                         " Z^2 or 2*n^2 overflows")
    energy = -(z**2) / (2.0 * n**2)
    r_o = 2.0 * n**2 / z
    omega = 2.0 * abs(energy)
    beta0_sq = -2.0 * energy
    alpha = 2.0 * z
    k_o = math.sqrt(-2.0 * energy)
    beta1 = k_o**2 * alpha / beta0_sq
    if beta1 == math.inf:  # k_o**2*alpha overflowed: divide first where it must
        beta1 = alpha * (k_o / beta0_sq * k_o)
    return StateParams(
        energy=energy,
        r_o=r_o,
        k_o=k_o,
        omega=omega,
        beta0_sq=beta0_sq,
        alpha=alpha,
        beta1=beta1,
    )


def bohr_ratio(state: StateParams, atom: AtomSpec) -> float:
    """Ratio of the trajectory-surface radius to the textbook Bohr radius.

    The Bohr radius of state (Z, n) is n^2/Z; the surface radius comes out at
    exactly twice that value for every Z and n.
    """
    return state.r_o / (atom.n**2 / atom.z)
