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
and an error even in h where rho V is smooth at the origin (Coulomb's is
constant); -1/rho^q leaves a term h^(2 + 2l - q) besides.

Three meshes of n, 2n and 4n cells give E1, E2 and E4, and Romberg's
E = (64 E4 - 20 E2 + E1)/45 cancels the h^2 and h^4 terms.  Its error bar
adds the certificates' deltas (below) with the same weights; four times
|R3 - R2|, R2 = (4 E4 - E2)/3, which bounds the error left by a term h^p,
p >= 2; E4's own error where (E2 - E1)/(E4 - E2) strays from 4, as at l = 0
when -1/rho^q outgrows h^2, or infinity where the meshes do not converge;
and twice |Psi'(rho_max)|^2 / (2 kappa), which the hard wall adds to a tail
exp(-kappa rho) (dE/drho_max = -|Psi'|^2; this fell short by up to 2% on
Coulomb and oscillator states).

The lowest eigenvalue of each symmetric tridiagonal matrix T comes from
inverse iteration with Rayleigh-quotient shifts (Parlett, The Symmetric
Eigenvalue Problem, 1980, ch. 4), one LAPACK ``dgtsv`` solve per step.  The
base mesh starts from Sturm-sequence bisection to ``SEED_TOL`` = 1e-3 Ry and
a constant vector, each finer mesh from the eigenvalue below it and that
mesh's eigenvector with every entry repeated.  Each iterate is offered to a
certificate, and the first that passes is the result.  The off-diagonal of
T is negative, so by Perron-Frobenius the ground eigenvector is its only
nonnegative one, and ``dpttrf`` must factor T - (lambda - delta) I as
positive definite, which proves that no eigenvalue lies below
lambda - delta, delta being the tolerance of bisection.  A Rayleigh
quotient is never below the lowest eigenvalue, so a certified lambda is
within delta of it.  Neither fact needs the iteration to have converged:
the certificate alone carries the proof, and the step size is only a
reason to give up.  A matrix whose iteration hits a singular shift, stalls
(a step below delta) or runs out of steps uncertified is solved by
bisection to full precision instead.  Whatever the seed, the result is
certified or replaced by bisection, so the seed needs no more digits than
the first shift can use.

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


SEED_TOL = 1e-3  # Ry, the base mesh's bisection tolerance
MAX_SHIFTS = 8  # Rayleigh-quotient steps before a matrix falls back to bisection
RATIO_TOL = 0.05  # how far (E2 - E1)/(E4 - E2) may stray from 4 before Romberg is distrusted


def _matrix(bound: BoundPotential, l: int, rho_max: float, n_cells: int):
    """Diagonal and (negative) off-diagonal of the symmetric FD matrix."""
    h = rho_max / n_cells
    centers = (np.arange(1, n_cells + 1) - 0.5) * h
    faces = np.arange(n_cells + 1) * h

    with np.errstate(all="ignore"):  # overflow and poles are caught just below
        v = np.asarray(bound(centers), dtype=float)
    if not np.all(np.isfinite(v)):
        raise PotentialEvalError("non-finite matrix entries; potential singular on mesh")

    # finite volume for -(rho phi')' + rho (l^2/rho^2 + V) phi = E rho phi,
    # symmetrized to a standard tridiagonal problem by the rho^(1/2) similarity
    diag = (faces[:-1] + faces[1:]) / h**2 / centers + (l * l) / centers**2 + v
    off = -faces[1:-1] / h**2 / np.sqrt(centers[:-1] * centers[1:])
    return diag, off


def _bisect(diag: np.ndarray, off: np.ndarray) -> float:
    return float(eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0])


def _delta(diag: np.ndarray, off: np.ndarray) -> float:
    """Bisection's own tolerance on T: ulp times its 1-norm."""
    row = np.abs(diag)
    row[:-1] += np.abs(off)
    row[1:] += np.abs(off)
    return np.finfo(float).eps * float(row.max())


def _shift_invert(diag: np.ndarray, off: np.ndarray, lam: float, x: np.ndarray, delta: float):
    """Lowest eigenvalue and eigenvector of T by Rayleigh-quotient iteration.

    Starts from the shift ``lam`` and the vector ``x``, and returns the first
    iterate (lambda, eigenvector) that passes the certificate with ``delta``,
    T's ``_delta``.  A singular solve, a step below delta or ``MAX_SHIFTS``
    steps without a certified iterate hand over to bisection: (its lambda, None).
    """
    eps = np.finfo(float).eps
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


def fd_ground_energy(bound: BoundPotential, l: int, rho_max: float,
                     points: int) -> tuple[float, float]:
    """Lowest eigenvalue on (0, rho_max] and its error bar: (energy, error).

    Romberg over ``points``, ``2 * points`` and ``4 * points`` uniform cells
    with a hard wall at rho_max; the module docstring gives the seeding, the
    certificate and the three terms of the error.
    """
    if points < 200:
        raise ValueError(f"need at least 200 points, got {points}")
    if not 0.0 < rho_max < np.inf:
        raise ValueError(f"rho_max must be positive and finite, got {rho_max}")
    meshes = [_matrix(bound, l, rho_max, n) for n in (points, 2 * points, 4 * points)]
    lam = float(eigvalsh_tridiagonal(*meshes[0], select="i", select_range=(0, 0), tol=SEED_TOL)[0])
    x, wall, energies = None, np.inf, []
    deltas = [_delta(diag, off) for diag, off in meshes]
    for (diag, off), delta in zip(meshes, deltas):
        x = np.ones(len(diag)) if x is None else np.repeat(x, 2)
        lam, x = _shift_invert(diag, off, lam, x, delta)
        energies.append(lam)
        if x is not None:  # the wall term, from Psi' = x[-1] / h^1.5 and kappa^2 =
            # V + l^2/rho^2 - E on the last cell, whose diagonal is 2/h^2 + l^2/rho^2 + V
            h = rho_max / len(diag)
            kappa2 = diag[-1] - 2.0 / h**2 - lam
            wall = x[-1] ** 2 / h**3 / np.sqrt(kappa2) if kappa2 > 0.0 else np.inf
    (e1, e2, e4), (d1, d2, d4) = energies, deltas
    step, last = e2 - e1, e4 - e2
    romberg = 4.0 * abs(4.0 * last - step) / 45.0  # four times |R3 - R2|
    if abs(step - 4.0 * last) > RATIO_TOL * abs(last):  # not converging as h^2
        converging = step * last > 0.0 and abs(step) > abs(last)
        romberg += last * last / abs(step - last) if converging else np.inf
    energy = (64.0 * e4 - 20.0 * e2 + e1) / 45.0
    error = (64.0 * d4 + 20.0 * d2 + d1) / 45.0 + romberg + wall
    return energy, float(error)
