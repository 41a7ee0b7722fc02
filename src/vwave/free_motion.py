"""Wave/trajectory relations for uniform rectilinear motion.

The travelling wave is A*cos(omega*(x/v - t)); its moving nodes carry the
particle trajectory, and the amplitude/frequency identities tie the wave
parameters to mass, velocity and energy (including the de Broglie relation
lambda = h / (m v)).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class FreeParams:
    """Wave and trajectory parameters of a particle moving at constant v."""

    v: float
    m: float
    energy: float
    omega: float
    wavelength: float
    amplitude: float
    k1: float
    k2: float


def free_params(v: float, m: float = 1.0) -> FreeParams:
    """Build the parameter set for velocity v and mass m (atomic units, h = 2*pi);
    ValueError where E, omega or lambda is not a finite, normal float (not 0, not
    subnormal, whose lost digits pi/omega would carry into every node position)."""
    if v == 0.0:
        raise ValueError("zero velocity: wavelength is undefined")
    if m <= 0.0:
        raise ValueError("mass must be positive")
    try:
        energy = 0.5 * m * v**2
        omega = m * v**2
        wavelength = 2.0 * math.pi / (m * abs(v))
    except (OverflowError, ZeroDivisionError):  # v**2 past the largest float, or m*|v| = 0
        energy = omega = wavelength = math.nan
    for name, x in (("E", energy), ("omega", omega), ("lambda", wavelength)):
        if not sys.float_info.min <= abs(x) < math.inf:
            raise ValueError(f"v={v!r} and m={m!r} are out of float64 range:"
                             f" {name} is not a finite, normal float")
    return FreeParams(
        v=v,
        m=m,
        energy=energy,
        omega=omega,
        wavelength=wavelength,
        amplitude=1.0,
        k1=m * v**2,
        k2=m,
    )


def wave_value(x, t, p: FreeParams, phase: float = 0.0):
    """Wave amplitude at (x, t).

    ``phase`` = 0 gives the cosine branch; pi/2 recovers the sine branch.
    """
    import numpy as np

    return p.amplitude * np.cos(p.omega * (np.asarray(x) / p.v - t) + phase)


def node_trajectory(p: FreeParams, branch: int, t: float) -> float:
    """Position of moving node ``branch`` at time t: x = v*(t + (pi/omega)*(branch + 1/2));
    ValueError where that is not finite."""
    x = p.v * (t + (math.pi / p.omega) * (branch + 0.5))
    if not math.isfinite(x):  # pi/omega = pi/(m*v^2) may overflow where x does not
        x = p.v * t + (math.pi / (p.m * p.v)) * (branch + 0.5)
    if not math.isfinite(x):
        raise ValueError(f"v={p.v!r} and m={p.m!r} are out of float64 range:"
                         f" the position of branch {branch} at t={t!r} overflows")
    return x


def quantized_frequencies(time_offset: float, n_max: int) -> list[float]:
    """Allowed frequencies omega_n = (pi/|C|)*(n + 1/2) for n = 1..n_max."""
    if time_offset == 0.0:
        raise ValueError("zero time offset: base frequency is undefined")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    omega_o = math.pi / abs(time_offset)
    return [omega_o * (n + 0.5) for n in range(1, n_max + 1)]


def space_derivative(x, t, p: FreeParams):
    """Analytic dV/dx of the cosine wave."""
    import numpy as np

    return -(p.omega / p.v) * p.amplitude * np.sin(p.omega * (np.asarray(x) / p.v - t))


def time_derivative(x, t, p: FreeParams):
    """Analytic dV/dt of the cosine wave."""
    import numpy as np

    return p.omega * p.amplitude * np.sin(p.omega * (np.asarray(x) / p.v - t))


def gradient_condition_check(p: FreeParams, t: float, branch: int) -> float:
    """Residual of the gradient boundary condition at a node.

    At every node |dV/dx| = (omega/v)*A = k2*v; the sign alternates with node
    parity, so the check compares magnitudes.
    """
    x = node_trajectory(p, branch, t)
    slope = float(space_derivative(x, t, p))
    return abs(abs(slope) - p.k2 * abs(p.v))
