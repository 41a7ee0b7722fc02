"""Trajectory-wave solver for hydrogen-like atoms.

Derives bound-state parameters, builds the terminating radial series and its
Wronskian-constructed decaying partner, classifies wave nodes, and verifies
everything through independent numerical routes.
"""

from .units import AtomSpec, StateParams, bohr_ratio, derive_state
from .free_motion import FreeParams, free_params, node_trajectory, wave_value
from .series import SeriesSolution, build_series, interior_zeros, quantization_scan, u_plus
from .wronskian import (
    BoundWave,
    RadialGrid,
    make_radial_grid,
    sample_wave,
    superpose,
    u_minus,
    wave_full,
)
from .nodes import NodeKind, NodeReport, find_nodes, track_superposition_nodes
from .verify import energy_closed_form, ode_residual, pde_residual_free, shoot_inward

__all__ = [
    "AtomSpec",
    "BoundWave",
    "FreeParams",
    "NodeKind",
    "NodeReport",
    "RadialGrid",
    "SeriesSolution",
    "StateParams",
    "bohr_ratio",
    "build_series",
    "derive_state",
    "energy_closed_form",
    "find_nodes",
    "free_params",
    "interior_zeros",
    "make_radial_grid",
    "node_trajectory",
    "ode_residual",
    "pde_residual_free",
    "quantization_scan",
    "sample_wave",
    "shoot_inward",
    "superpose",
    "track_superposition_nodes",
    "u_minus",
    "u_plus",
    "wave_full",
    "wave_value",
]
