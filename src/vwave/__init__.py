"""Trajectory-wave solver for hydrogen-like atoms.

Derives bound-state parameters, builds the terminating radial series and its
Wronskian-constructed decaying partner, classifies wave nodes, and verifies
everything numerically.

Each public name loads its defining module on first use (PEP 562), so
``import vwave`` loads no numpy and a caller pays only for what it touches.
"""

import importlib

# public name -> defining module
_EXPORTS = {
    "AtomSpec": "units",
    "StateParams": "units",
    "bohr_ratio": "units",
    "derive_state": "units",
    "FreeParams": "free_motion",
    "free_params": "free_motion",
    "node_trajectory": "free_motion",
    "wave_value": "free_motion",
    "SeriesSolution": "series",
    "build_series": "series",
    "interior_zeros": "series",
    "quantization_scan": "series",
    "u_plus": "series",
    "BoundWave": "wronskian",
    "RadialGrid": "wronskian",
    "make_radial_grid": "wronskian",
    "sample_wave": "wronskian",
    "superpose": "wronskian",
    "u_minus": "wronskian",
    "NodeKind": "nodes",
    "NodeReport": "nodes",
    "find_nodes": "nodes",
    "track_superposition_nodes": "nodes",
    "ode_residual": "verify",
    "pde_residual_free": "verify",
    "shoot_inward": "verify",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
