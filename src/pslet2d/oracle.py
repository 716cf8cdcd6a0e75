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

The lowest eigenvalue of each symmetric tridiagonal matrix T comes from
inverse iteration with Rayleigh-quotient shifts (Parlett, The Symmetric
Eigenvalue Problem, 1980, ch. 4), one LAPACK ``dgtsv`` solve per step,
seeded by Sturm-sequence bisection on a mesh eight times coarser.  Each
iterate is offered to a certificate, and the first that passes is the
result.  The off-diagonal of T is negative, so by Perron-Frobenius the
ground eigenvector is its only nonnegative one, and ``dpttrf`` must factor
T - (lambda - delta) I as positive definite, which proves that no
eigenvalue lies below lambda - delta, delta being the tolerance of
bisection.  A Rayleigh quotient is never below the lowest eigenvalue, so a
certified lambda is within delta of it.  Neither fact needs the iteration
to have converged: the certificate alone carries the proof, and the step
size is only a reason to give up.  A matrix whose iteration hits a singular
shift, stalls (a step below delta) or runs out of steps uncertified is
solved by bisection to full precision instead.

The seed is bisected only to ``SEED_TOL`` = 1e-3 Ry.  The coarse mesh's own
discretization error (2e-3 to 7e-3 on the hybrid's published sweep) already
sets how far the first shift lies from the lowest eigenvalue, so bisecting
further would not bring it closer; and whatever the seed, the result is
certified or replaced by bisection.

scipy is imported on the first FD call, not with this module, so that
every other command starts without it.
"""

from __future__ import annotations

import numpy as np

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


def eigvalsh_tridiagonal(*args, **kwargs):
    """``scipy.linalg.eigvalsh_tridiagonal``, imported on first use."""
    from scipy.linalg import eigvalsh_tridiagonal

    return eigvalsh_tridiagonal(*args, **kwargs)


def dgtsv(*args):
    """LAPACK ``dgtsv`` from ``scipy.linalg.lapack``, imported on first use."""
    from scipy.linalg.lapack import dgtsv

    return dgtsv(*args)


def dpttrf(*args):
    """LAPACK ``dpttrf`` from ``scipy.linalg.lapack``, imported on first use."""
    from scipy.linalg.lapack import dpttrf

    return dpttrf(*args)


SEED_COARSENING = 8  # the seed's mesh has this many times fewer cells
SEED_TOL = 1e-3  # Ry, the seed's bisection tolerance, below its mesh error of 2e-3 to 7e-3
MAX_SHIFTS = 8  # Rayleigh-quotient steps before a matrix falls back to bisection


def _matrix(bound: BoundPotential, l: int, rho_max: float, n_cells: int):
    """Diagonal and (negative) off-diagonal of the symmetric FD matrix."""
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
    return diag, off


def _bisect(diag: np.ndarray, off: np.ndarray) -> float:
    return float(eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0])


def _shift_invert(diag: np.ndarray, off: np.ndarray, lam: float, x: np.ndarray):
    """Lowest eigenvalue and eigenvector of T by Rayleigh-quotient iteration.

    Starts from the shift ``lam`` and the vector ``x``, and returns the first
    iterate (lambda, eigenvector) that passes the certificate.  A singular
    solve, a step below the certificate's delta or ``MAX_SHIFTS`` steps
    without a certified iterate hand over to bisection: (its lambda, None).
    """
    eps = np.finfo(float).eps
    # bisection's own tolerance: ulp times the 1-norm of T
    row = np.abs(diag)
    row[:-1] += np.abs(off)
    row[1:] += np.abs(off)
    delta = eps * row.max()
    # row sums d_i + e_i + e_(i-1), with the rounding error of the first sum
    # added back (TwoSum), so that (T x)_i = sums_i x_i + e_i (x_(i+1) - x_i)
    # + e_(i-1) (x_(i-1) - x_i) cancels the O(1/h^2) entries before rounding;
    # built in place, since the temporaries cost more than the arithmetic
    first = diag.copy()
    first[:-1] += off
    back = first - diag
    error = diag - (first - back)
    error[:-1] += off - back[:-1]
    sums = first
    sums[1:] += off
    sums += error
    for _ in range(MAX_SHIFTS):
        y, info = dgtsv(off, diag - lam, off, x)[3:]
        if info:  # T - lam I is singular to working precision: let bisection decide
            break
        x = y / np.copysign(np.linalg.norm(y), y.sum())
        flux = off * np.diff(x)
        r = (sums - lam) * x
        r[:-1] += flux
        r[1:] -= flux
        step = float(x @ r)
        lam += step
        # nonnegative up to rounding: the Perron vector, not another one
        if x.min() >= -eps * x.max() and dpttrf(diag - (lam - delta), off)[2] == 0:
            return lam, x
        if abs(step) <= delta:  # converged, but not to a certified lowest eigenvalue
            break
    return _bisect(diag, off), None


def fd_ground_energy(bound: BoundPotential, l: int, rho_max: float, points: int) -> float:
    """Lowest eigenvalue on (0, rho_max], Richardson-extrapolated over a halving.

    Solves with ``points`` uniform cells and with twice as many (spacing h
    and h/2), with a hard wall at rho_max; the scheme is second order, so
    E = E_half + (E_half - E_full)/3 cancels the leading h^2 error.  Each
    lowest eigenvalue comes from certified shift-invert iteration (see the
    module docstring): on ``points`` cells it starts from bisection's value
    on ``points // 8`` cells, to ``SEED_TOL``, and a constant vector; on
    ``2 * points`` cells from the first eigenvalue and its eigenvector with
    every entry repeated.  The result lies within (4/3) d2 + d1/3 of the
    extrapolation of the two exact lowest eigenvalues, d1 and d2 being the
    certificates' deltas.
    """
    if points < 200:
        raise ValueError(f"need at least 200 points, got {points}")
    if not 0.0 < rho_max < np.inf:
        raise ValueError(f"rho_max must be positive and finite, got {rho_max}")
    fine = _matrix(bound, l, rho_max, points)
    finer = _matrix(bound, l, rho_max, 2 * points)
    try:
        coarse = _matrix(bound, l, rho_max, points // SEED_COARSENING)
    except PotentialEvalError:  # singular only on the coarse mesh
        coarse = fine
    seed = float(eigvalsh_tridiagonal(*coarse, select="i", select_range=(0, 0), tol=SEED_TOL)[0])
    e1, x = _shift_invert(*fine, seed, np.ones(points))
    e2, _ = _shift_invert(*finer, e1, np.ones(2 * points) if x is None else np.repeat(x, 2))
    return e2 + (e2 - e1) / 3.0
