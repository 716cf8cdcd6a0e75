"""Independent ground truth for validating the expansion engine.

Closed-form nodeless energies for the 2D Coulomb and oscillator potentials,
plus a finite-difference eigensolver for arbitrary potentials.  The FD route
never touches the expansion machinery, so agreement between the two is a real
cross-check.

The radial equation is solved for phi = Psi / sqrt(rho), in the form

    -(1/rho) d/drho (rho dphi/drho) + (l^2/rho^2) phi + V phi = E phi,

which is regular at the origin (differencing the reduced form, with its
-1/(4 rho^2) term, fails at l = 0: spurious states on the innermost point,
or -2.46 instead of -4.0 for the Coulomb ground state on 4000 points).  A
conservative finite-volume scheme on cell centers rho_i = (i - 1/2) h,
h = rho_max / points, covers (0, rho_max] with a hard wall at rho_max.  Its
error is even in h where rho V is smooth at the origin (Coulomb's is
constant); -1/rho^q leaves a term h^(2 + 2l - q) besides.

Three meshes of n, 2n and 4n cells, built in one pass from one evaluation
of V on all 7n cell centers, give E1, E2 and E4, and Romberg's
E = (64 E4 - 20 E2 + E1)/45 cancels the h^2 and h^4 terms.  Its error bar
adds the certificates' deltas (below) with the same weights; four times
|R3 - R2|, R2 = (4 E4 - E2)/3, which bounds the error left by a term h^p,
p >= 2; E4's own error where (E2 - E1)/(E4 - E2) strays from 4, as at l = 0
when -1/rho^q outgrows h^2, or infinity where the meshes do not converge;
and twice |Psi'(rho_max)|^2 / (2 kappa), which the hard wall adds to a tail
exp(-kappa rho) (dE/drho_max = -|Psi'|^2; this fell short by up to 2% on
Coulomb and oscillator states).

The lowest eigenvalue of each tridiagonal matrix T comes from inverse
iteration with Rayleigh-quotient shifts (Parlett, The Symmetric Eigenvalue
Problem, 1980, ch. 4), one LAPACK ``dgtsv`` solve per step.  The base mesh
starts from a constant vector and a first shift: the caller's estimate of
the energy where it passes a finite one (``sweep --oracle`` passes its row's
expansion energy, usually within 1e-2 Ry), else LAPACK ``dstebz``'s
Sturm-sequence bisection to ``SEED_TOL`` = 1e-3 Ry, which costs mostly its
search for the lowest eigenvalue's index, whatever the tolerance (on 500
cells about 90, 120 and 240 us at 0.1, 1e-3 and 0).  Each finer mesh starts
from the eigenvalue below it and that mesh's eigenvector with every entry
repeated.  The first iterate that passes a certificate is the result: T's
off-diagonal is negative, so by Perron-Frobenius the ground eigenvector is
its only nonnegative one, and ``dpttrf`` must factor T - (lambda - delta) I
as positive definite, so that no eigenvalue lies below lambda - delta,
delta being bisection's tolerance; a Rayleigh quotient never lies below the
lowest eigenvalue.  That holds converged or not, and whatever the first
shift was, so a poor estimate costs steps, never more than delta of the
answer; the step size is only a reason to give up: a singular shift, an
iterate whose norm under- or overflows, a step below delta (as where a shift
near an excited state converges there) or ``MAX_SHIFTS`` uncertified steps
send the matrix to bisection to full precision, so the first shift's digits
speed the iteration but do not bound its accuracy.  The pass that builds
the meshes also gives each one's delta and the row sums of its Rayleigh
residual.

LAPACK is scipy's ``_flapack`` extension, loaded by file on the first FD call:
no other command imports scipy, and the oracle skips ``scipy.linalg``'s init.
"""

from __future__ import annotations

import math
from itertools import accumulate

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


def _flapack():
    """scipy's ``_flapack``, put in ``sys.modules`` so that a later ``import scipy.linalg``
    shares it; where that fails, ``scipy.linalg.lapack`` (the same functions)."""
    import sys
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        from importlib import import_module, machinery, util
        import scipy
        loaders = (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)
        spec = machinery.FileFinder(f"{scipy.__path__[0]}/linalg", loaders).find_spec(name)
        try:
            if spec is None:
                raise ImportError(name)
            module = util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:
            return import_module("scipy.linalg.lapack")
        sys.modules[name] = module
    return sys.modules[name]


def eigvalsh_tridiagonal(d, e, tol=0.0):
    """Lowest eigenvalue of the tridiagonal (d, e) to ``tol`` (0: full precision):
    LAPACK ``dstebz`` from ``_flapack`` called as scipy's wrapper calls it for
    ``select="i", select_range=(0, 0)``, but without its finiteness check."""
    _, w, _, _, info = _flapack().dstebz(d, e, 2, 0.0, 1.0, 1, 1, tol, "E")
    if info:
        raise np.linalg.LinAlgError(f"dstebz did not converge (LAPACK info={info})")
    return float(w[0])


def dgtsv(*args):
    """LAPACK ``dgtsv``, the very function ``scipy.linalg.lapack`` exports, from ``_flapack``."""
    return _flapack().dgtsv(*args)


def dpttrf(*args):
    """LAPACK ``dpttrf``, the very function ``scipy.linalg.lapack`` exports, from ``_flapack``."""
    return _flapack().dpttrf(*args)


SEED_TOL = 1e-3  # Ry, the base mesh's bisection tolerance
MAX_SHIFTS = 8  # Rayleigh-quotient steps before a matrix falls back to bisection
RATIO_TOL = 0.05  # how far (E2 - E1)/(E4 - E2) may stray from 4 before Romberg is distrusted


def _meshes(bound: BoundPotential, l: int, rho_max: float, sizes: tuple[int, ...]):
    """Per mesh of each of ``sizes`` cells, (diagonal, negative off-diagonal, delta,
    row sums) of the symmetric FD matrix T, as views of arrays built in one pass
    from one walk of V; delta is ulp times T's 1-norm, bisection's own tolerance."""
    steps = [rho_max / n for n in sizes]
    try:
        squares = [h**2 for h in steps]
    except OverflowError:  # as if h^2 had underflowed: the entries below are infinite
        squares = [0.0] * len(sizes)
    index = np.concatenate([np.arange(1.0, n + 1) for n in sizes])
    h, h2 = np.array(steps).repeat(sizes), np.array(squares).repeat(sizes)
    centers, faces = (index - 0.5) * h, index * h  # faces: each cell's outer one
    with np.errstate(all="ignore"):  # overflow and poles are caught just below
        v = np.asarray(bound(centers), dtype=float)
        # finite volume for -(rho phi')' + rho (l^2/rho^2 + V) phi = E rho phi,
        # symmetrized to a standard tridiagonal problem by the rho^(1/2) similarity
        diag = ((index - 1) * h + faces) / h2 / centers + (l * l) / centers**2 + v
        off = -faces[:-1] / h2[:-1] / np.sqrt(centers[:-1] * centers[1:])
    if not np.isfinite(v).all():
        raise PotentialEvalError("non-finite matrix entries; potential singular on mesh")
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError(f"rho_max = {rho_max!r} on {sizes[0]} cells gives FD matrix "
                         "entries beyond the float range")
    starts = [0, *accumulate(sizes)]
    off[[end - 1 for end in starts[1:-1]]] = 0.0  # the entries coupling a mesh to the next
    row = np.abs(diag)
    row[:-1] += np.abs(off)
    row[1:] += np.abs(off)
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
    return [(diag[a:b], off[a:b - 1], math.ulp(1.0) * norm, sums[a:b]) for a, b, norm
            in zip(starts, starts[1:], np.maximum.reduceat(row, starts[:-1]).tolist())]


def _shift_invert(diag: np.ndarray, off: np.ndarray, lam: float, x: np.ndarray, delta: float,
                  sums: np.ndarray):
    """The first Rayleigh-quotient iterate (lambda, eigenvector) of T, from the shift
    ``lam`` and the vector ``x``, that passes the certificate with T's ``delta`` and
    ``sums`` from ``_meshes``; (bisection's lambda, None) where the iteration gives up."""
    eps = math.ulp(1.0)
    for _ in range(MAX_SHIFTS):
        y, info = dgtsv(off, diag - lam, off, x)[3:]
        norm = math.sqrt(y @ y)
        if info or not 0.0 < norm < math.inf:  # T - lam I singular to working precision,
            break  # or ||y|| under- or overflowed: let bisection decide
        x = y / math.copysign(norm, y.sum())
        flux = off * (x[1:] - x[:-1])
        r = (sums - lam) * x
        r[:-1] += flux
        r[1:] -= flux
        step = float(x @ r)
        lam += step
        # a finite lambda (dpttrf passes NaN) and, nonnegative up to rounding, the Perron vector
        if (math.isfinite(lam) and x.min() >= -eps * x.max()
                and dpttrf(diag - (lam - delta), off)[2] == 0):
            return lam, x
        if abs(step) <= delta:  # converged, but not to a certified lowest eigenvalue
            break
    return eigvalsh_tridiagonal(diag, off), None


def fd_ground_energy(bound: BoundPotential, l: int, rho_max: float, points: int,
                     shift: float | None = None) -> tuple[float, float]:
    """Lowest eigenvalue on (0, rho_max] and its error bar, (energy, error), by
    Romberg over ``points``, ``2 * points`` and ``4 * points`` uniform cells with
    a hard wall at rho_max; a finite ``shift`` (an estimate of the energy) starts
    the base mesh's iteration in place of the seed bisection.  The module
    docstring gives the seed, certificate and bar."""
    if points < 200:
        raise ValueError(f"need at least 200 points, got {points}")
    if not 0.0 < rho_max < np.inf:
        raise ValueError(f"rho_max must be positive and finite, got {rho_max}")
    meshes = _meshes(bound, l, rho_max, (points, 2 * points, 4 * points))
    if shift is not None and math.isfinite(shift):
        lam = float(shift)
    else:
        lam = eigvalsh_tridiagonal(*meshes[0][:2], SEED_TOL)
    x, wall, energies = None, np.inf, []
    for diag, off, delta, sums in meshes:
        x = np.ones(len(diag)) if x is None else x.repeat(2)
        lam, x = _shift_invert(diag, off, lam, x, delta, sums)
        energies.append(lam)
        if x is not None:  # the wall term, from Psi' = x[-1] / h^1.5 and kappa^2 =
            # V + l^2/rho^2 - E on the last cell, whose diagonal is 2/h^2 + l^2/rho^2 + V
            h = rho_max / len(diag)
            kappa2 = diag[-1] - 2.0 / h**2 - lam
            wall = x[-1] ** 2 / h**3 / np.sqrt(kappa2) if kappa2 > 0.0 else np.inf
    (e1, e2, e4), (d1, d2, d4) = energies, (delta for _, _, delta, _ in meshes)
    step, last = e2 - e1, e4 - e2
    romberg = 4.0 * abs(4.0 * last - step) / 45.0  # four times |R3 - R2|
    if abs(step - 4.0 * last) > RATIO_TOL * abs(last):  # not converging as h^2
        converging = step * last > 0.0 and abs(step) > abs(last)
        romberg += last * last / abs(step - last) if converging else np.inf
    energy = (64.0 * e4 - 20.0 * e2 + e1) / 45.0
    error = (64.0 * d4 + 20.0 * d2 + d1) / 45.0 + romberg + wall
    return energy, float(error)
