"""Independent ground truth for validating the expansion engine.

Closed-form nodeless energies for the 2D Coulomb and oscillator potentials,
plus a finite-difference eigensolver for arbitrary potentials.  The FD route
never touches the expansion machinery, so agreement between the two is a real
cross-check.

Discretizing the reduced form [-d^2/drho^2 + (4l^2-1)/(4 rho^2) + V] Psi = E Psi
directly on a linear mesh fails for l = 0: the attractive -1/(4 rho^2) term
either spawns spurious states localized on the innermost mesh point or, with
the boundary pushed out, converges at a uselessly slow rate (the sqrt(rho)
cusp of Psi defeats second-order differences; -2.46 instead of -4.0 for the
2D Coulomb ground state at 4000 points).  We therefore substitute
Psi = sqrt(rho) phi and solve the exactly equivalent cylindrical form

    -(1/rho) d/drho (rho dphi/drho) + (l^2/rho^2) phi + V phi = E phi,

which is regular at the origin, with a conservative finite-volume scheme on
cell centers rho_i = (i - 1/2) h, h = rho_max / points, over the whole of
(0, rho_max] with a hard wall at rho_max.  Same operator, same spectrum,
clean h^2 convergence.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .expressions import BoundPotential, PotentialEvalError

__all__ = ["coulomb_exact", "oscillator_exact", "fd_ground_energy"]


def coulomb_exact(m: int) -> float:
    """Nodeless 2D Coulomb energy for V = -2/rho: -(|m| + 1/2)^-2."""
    return -((abs(m) + 0.5) ** -2)


def oscillator_exact(m: int, gamma: float) -> float:
    """Nodeless 2D oscillator energy for V = gamma^2 rho^2 / 4: gamma (|m| + 1)."""
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return gamma * (abs(m) + 1)


def _lowest_eigenvalue(bound: BoundPotential, l: int, rho_max: float, n_cells: int) -> float:
    h = rho_max / n_cells
    centers = (np.arange(1, n_cells + 1) - 0.5) * h
    faces = np.arange(n_cells + 1) * h

    with np.errstate(all="ignore"):  # overflow and poles are caught just below
        v = np.asarray(bound(centers), dtype=float)
    if v.ndim == 0:
        v = np.full_like(centers, float(v))
    if not np.all(np.isfinite(v)):
        raise PotentialEvalError("non-finite matrix entries; potential singular on mesh")

    # finite volume for -(rho phi')' + rho (l^2/rho^2 + V) phi = E rho phi,
    # symmetrized to a standard tridiagonal problem by the rho^(1/2) similarity
    diag = (faces[:-1] + faces[1:]) / h**2 / centers + (l * l) / centers**2 + v
    off = -faces[1:-1] / h**2 / np.sqrt(centers[:-1] * centers[1:])
    vals = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    return float(vals[0])


def fd_ground_energy(bound: BoundPotential, l: int, rho_max: float, points: int) -> float:
    """Lowest eigenvalue on (0, rho_max], Richardson-extrapolated over a halving.

    Solves with ``points`` uniform cells and with twice as many (spacing h
    and h/2), with a hard wall at rho_max; the scheme is second order, so
    E = E_half + (E_half - E_full)/3 cancels the leading h^2 error.  The
    lowest eigenvalue itself comes from Sturm-sequence bisection on the
    tridiagonal matrix.
    """
    if points < 200:
        raise ValueError(f"need at least 200 points, got {points}")
    if not rho_max > 0.0:
        raise ValueError(f"rho_max must be positive, got {rho_max}")
    e1 = _lowest_eigenvalue(bound, l, rho_max, points)
    e2 = _lowest_eigenvalue(bound, l, rho_max, 2 * points)
    return e2 + (e2 - e1) / 3.0
