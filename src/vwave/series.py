"""Terminating power-series solution of the radial equation.

The growing branch is u_+(r) = exp(k_o*r) * P(s), s = r_o - r, where
P(s) = sum_{m=1..n} a_m*s^m has coefficients from the two-term recurrence

    a_{m+1} = ((2*k_o*m - beta1) / ((m+1)*m)) * a_m,   a_1 = 1.

Because beta1 = 2*k_o*n for a bound state, a_{n+1} vanishes and the series
terminates after n terms.  Then P(s) = s*L^{(1)}_{n-1}(2*k_o*s)/n (DLMF 18.5),
so P is evaluated in product form, a_n*s*prod_j (s - s_j), over the zeros s_j
of L^{(1)}_{n-1}(2*k_o*s): the nodes of its Gauss rule, divided by 2*k_o.
The alternating monomial sum loses digits as n grows; the product keeps them,
and vanishes exactly at the zeros it is built from.  termination_ratio checks
the termination condition beta1 = 2*k_o*n on the state; quantization_scan
bisects the same condition over trial energies, which solves the closed form
E_n = -Z^2/(2 n^2) numerically rather than checking it independently.

One helper, gauss, builds every Gauss rule vwave uses from its Jacobi matrix
(Golub and Welsch, Math. Comp. 23, 1969): these zeros, and the Gauss-Legendre
panels and Gauss-Laguerre tail of the Wronskian integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import AtomSpec, StateParams, derive_state


@dataclass(frozen=True)
class SeriesSolution:
    """Coefficients a_1..a_n of the growing branch, and the zeros s_j of P(s)/s, ascending."""

    atom: AtomSpec
    state: StateParams
    coeffs: tuple[float, ...]
    roots: tuple[float, ...]


def gauss(diag, off, mu0: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss rule of the symmetric tridiagonal Jacobi matrix
    with diagonal diag and off-diagonal off: its eigenvalues, ascending, and mu0 (the
    weight function's integral) times the squared first component of each eigenvector."""
    m = len(diag)
    jacobi = np.diag(np.asarray(diag, dtype=float))
    jacobi[range(m - 1), range(1, m)] = off
    nodes, vecs = np.linalg.eigh(jacobi, UPLO="U")
    return nodes, mu0 * vecs[:1].ravel() ** 2  # [:1]: an empty matrix has no first row


def recurrence_step(m: int, a_m: float, k_o: float, beta1: float) -> float:
    """One application of the coefficient recurrence: a_{m+1} from a_m."""
    return (2.0 * k_o * m - beta1) / ((m + 1) * m) * a_m


def build_series(atom: AtomSpec) -> SeriesSolution:
    """Compute the n terminating coefficients and the n - 1 zeros of P(s)/s for state (Z, n)."""
    state = derive_state(atom)
    coeffs = [1.0]
    for m in range(1, atom.n):
        coeffs.append(recurrence_step(m, coeffs[-1], state.k_o, state.beta1))
        # the step ratio is finite, so a_n is 0 once any a_m is: a state whose
        # a_n underflows is refused there, before the rest of the recurrence
        if coeffs[-1] == 0.0:
            raise ValueError(f"state (Z={atom.z}, n={atom.n}) is out of float64 range: "
                             "the series coefficient a_n = (-2*k_o)^(n-1)/n! underflows")
    # Jacobi matrix of L^{(1)}_{n-1}: diagonal 2i + 2, off-diagonal sqrt(i*(i+1))
    i = np.arange(atom.n - 1)
    roots = (gauss(2.0 * i + 2.0, np.sqrt(i[1:] * (i[1:] + 1.0)))[0] / (2.0 * state.k_o)).tolist()
    return SeriesSolution(atom=atom, state=state, coeffs=tuple(coeffs), roots=tuple(roots))


def u_plus(r, sol: SeriesSolution):
    """Evaluate u_+ = exp(k_o*r)*a_n*s*prod_j (s - s_j) at r (scalar or array)."""
    r = np.asarray(r, dtype=float)
    s = sol.state.r_o - r
    p = sol.coeffs[-1] * s
    for root in sol.roots:
        p = p * (s - root)
    out = np.exp(sol.state.k_o * r) * p
    return out if out.ndim else float(out)


def product_form(s, sol: SeriesSolution, skip=None):
    """P(s) = a_n*s*prod_j (s - s_j) and dP/ds at s, by the product rule.

    With skip, a root index (or an array of them, one per point), the factor
    s - s_skip is left out: P/(s - s_skip) without a division, finite at s_skip.
    Index -1 leaves out the factor s, the zero at r_o.
    """
    lead = True if skip is None else skip != -1
    p, dp = sol.coeffs[-1] * np.where(lead, s, 1.0), sol.coeffs[-1] * lead
    for j, root in enumerate(sol.roots):
        keep = True if skip is None else skip != j
        f = np.where(keep, s - root, 1.0)
        dp = dp * f + keep * p
        p = p * f
    return p, dp


def u_plus_prime(r, sol: SeriesSolution):
    """Analytic du_+/dr = exp(k_o*r)*(k_o*P - dP/ds), as dP/dr = -dP/ds."""
    r = np.asarray(r, dtype=float)
    p, dp = product_form(sol.state.r_o - r, sol)
    out = np.exp(sol.state.k_o * r) * (sol.state.k_o * p - dp)
    return out if out.ndim else float(out)


def interior_zeros(sol: SeriesSolution) -> list[float]:
    """Zeros r_o - s_j of u_+ strictly between 0 and r_o, ascending; r_o itself excluded.

    The zeros of L^{(1)}_{n-1} lie in (0, 4n) = (0, 2*k_o*r_o), so every s_j
    maps into (0, r_o), and there are no zeros for r > r_o.
    """
    return [sol.state.r_o - s for s in reversed(sol.roots)]


def termination_ratio(atom: AtomSpec) -> float:
    """|2*k_o*n - beta1| / beta1 from derive_state: the relative rounding of a_{n+1} = 0."""
    state = derive_state(atom)
    return abs(2.0 * state.k_o * atom.n - state.beta1) / state.beta1


def quantization_index(energy: float, z: int) -> float:
    """beta1/(2*k_o) evaluated at an arbitrary trial energy E < 0.

    The bound states are exactly the energies where this is a positive
    integer (the series-termination condition).
    """
    if energy >= 0.0:
        raise ValueError("trial energy must be negative")
    k_o = math.sqrt(-2.0 * energy)
    beta1 = 2.0 * z
    return beta1 / (2.0 * k_o)


def quantization_scan(z: int, e_lo: float, e_hi: float) -> list[tuple[int, float]]:
    """Find all bound energies in (e_lo, e_hi) by root-scanning the termination condition.

    For each integer n strictly inside the range of beta1/(2*k_o), bisect on
    beta1(E)/(2*k_o(E)) - n to 1e-10 relative.  With beta1 = 2Z that is
    Z/sqrt(-2E) = n, the closed-form spectrum solved by bisection: the scan
    shares the termination condition with derive_state rather than checking
    it independently.
    """
    if not (e_lo < e_hi < 0.0):
        raise ValueError("need e_lo < e_hi < 0")
    nu_lo = quantization_index(e_lo, z)
    nu_hi = quantization_index(e_hi, z)
    out = []
    for n in range(math.floor(nu_lo) + 1, math.ceil(nu_hi)):
        lo, hi = e_lo, e_hi
        # quantization_index is monotonically increasing in E.
        while (hi - lo) > 1e-10 * abs(lo):
            mid = 0.5 * (lo + hi)
            if quantization_index(mid, z) < n:
                lo = mid
            else:
                hi = mid
        out.append((n, 0.5 * (lo + hi)))
    return out
