"""Nodeless wavefunction synthesis from the solved coefficient hierarchy.

The log-derivative series W(x) = sum_s W_s(x) lbar^(-s/2) is integrated
termwise (U(0) = 0 at rho = rho0, U' = W) and regrouped in the relative
coordinate y = (rho - rho0)/rho0, in which each power of lbar carries a
truncated power series.

Near the origin the centrifugal term forces Psi ~ rho^(l + 1/2), and the
series indeed reproduces the Taylor coefficients of (l + 1/2) ln(1 + y) order
by order.  Summing that part in closed form -- the same resummation step that
turns the raw series into the exact Coulomb and oscillator eigenfunctions --
leaves only a genuinely polynomial remainder to exponentiate:

    Psi_0(rho) = (rho/rho0)^(l + 1/2) exp( sum_t lbar^(-t/2) b_t(y) ).

Without this step the raw truncated polynomial in U is numerically useless
away from rho0 (the geometric tail of the log series diverges for |y| > 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .engine import CoefficientTable, Geometry, SolverError

__all__ = ["GridError", "WavefunctionSeries", "synthesize_wavefunction"]


class GridError(ValueError):
    """The sampling grid is malformed or misses the wavefunction's support."""


TAIL_FRACTION = 1e-6  # user grid must capture all but this much of the mass
NORM_TAIL = 1e-8  # internal normalization grid extends until tail < this


@dataclass(frozen=True)
class WavefunctionSeries:
    """Normalized nodeless wavefunction samples plus the series that built them.

    ``log_power`` is the closed-form prefactor exponent l + 1/2;
    ``blocks[t]`` holds the y-coefficients multiplying lbar^(-t/2) in the
    remainder exponent.
    """

    geometry: Geometry
    log_power: float
    blocks: dict[int, np.ndarray]
    grid: np.ndarray
    psi: np.ndarray  # reduced wavefunction, int |psi|^2 drho = 1
    radial: np.ndarray  # R(rho) = psi * rho^(-1/2)
    norm: float  # normalization constant divided out of exp(U)

    def unnormalized(self, rho) -> np.ndarray:
        """exp(U(x(rho))) before normalization."""
        rho = np.asarray(rho, dtype=float)
        y = rho / self.geometry.rho0 - 1.0
        lbar = self.geometry.lbar
        expo = self.log_power * np.log1p(y)
        for t, coeffs in self.blocks.items():
            expo = expo + lbar ** (-t / 2.0) * np.polyval(coeffs[::-1], y)
        return np.exp(expo)


def assemble_exponent_blocks(
    geom: Geometry, table: CoefficientTable
) -> tuple[float, dict[int, np.ndarray]]:
    """Regroup the integrated W series by powers of lbar and split off the log.

    Returns (log_power, blocks) with log_power = l + 1/2 and blocks[t] the
    y-polynomial multiplying lbar^(-t/2) after the log subtraction.
    """
    S = len(table.W) - 1

    # blocks[t][k]: coefficient of y^k at lbar^(-t/2); t = s - k runs over
    # -2..S-1, as W_s holds s + 2 coefficients
    blocks = {t: np.zeros(S - t + 1) for t in range(-2, S)}
    for s in range(S + 1):
        # x-coefficients of the integral of W_s from x^1 up (zero constant term)
        integral = table.W[s] / np.arange(1, len(table.W[s]) + 1)
        for k, c in enumerate(integral, start=1):
            blocks[s - k][k] += c

    # subtract the truncated log series: coefficient 1 at lbar^(+1) (t = -2)
    # and beta + 1/2 at lbar^0 (t = 0); their sum is lbar + beta + 1/2 = l + 1/2
    log_power = geom.l + 0.5
    for t, coef in ((-2, 1.0), (0, geom.beta + 0.5)):
        blk = blocks[t]
        for k in range(1, len(blk)):
            blk[k] -= coef * (-1.0) ** (k + 1) / k

    # drop blocks that cancelled to rounding noise
    cleaned = {}
    for t, blk in blocks.items():
        if np.max(np.abs(blk)) > 1e-13:
            cleaned[t] = blk
    return log_power, cleaned


def synthesize_wavefunction(
    geom: Geometry,
    table: CoefficientTable,
    grid,
) -> WavefunctionSeries:
    """Normalized nodeless wavefunction sampled on ``grid`` (strictly increasing finite rho > 0).

    Normalization integrates |Psi|^2 on an internal dense grid reaching from
    rho ~ 0 out to where the tail mass drops below 1e-8, so the reported
    samples satisfy the whole-line normalization regardless of the user grid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise GridError("grid must contain at least two points")
    if grid[0] <= 0.0:
        raise GridError("grid must start at rho > 0")
    if not np.all(np.diff(grid) > 0.0):
        raise GridError("grid must be strictly increasing")
    if grid[-1] == math.inf:
        raise GridError("grid must be finite")

    log_power, blocks = assemble_exponent_blocks(geom, table)
    wf = WavefunctionSeries(
        geometry=geom,
        log_power=log_power,
        blocks=blocks,
        grid=grid,
        psi=np.empty(0),
        radial=np.empty(0),
        norm=1.0,
    )

    norm_sq, rho_max = _whole_line_mass(wf, geom, float(grid[-1]))
    norm = math.sqrt(norm_sq)

    psi = wf.unnormalized(grid) / norm
    radial = psi / np.sqrt(grid)

    # coverage check: mass beyond the user grid's last point
    tail = _mass_between(wf, float(grid[-1]), rho_max) / norm_sq
    if tail > TAIL_FRACTION:
        raise GridError(
            f"grid does not cover the support: tail mass fraction {tail:.2e}"
        )

    return replace(wf, psi=psi, radial=radial, norm=norm)


def simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson integral of samples ``y`` at increasing points ``x``, an odd count.

    The same operations as scipy.integrate.simpson (scipy 1.17) on an odd
    number of samples, so the two agree bit for bit.
    """
    if len(y) % 2 == 0:
        raise ValueError(f"simpson needs an odd number of samples, got {len(y)}")
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    h0divh1 = h0 / h1
    terms = hsum / 6.0 * (y[0:-2:2] * (2.0 - 1.0 / h0divh1)
                          + y[1:-1:2] * (hsum * (hsum / (h0 * h1)))
                          + y[2::2] * (2.0 - h0divh1))
    return np.sum(terms)


def _whole_line_mass(wf: WavefunctionSeries, geom: Geometry, grid_max: float):
    """Integrate |Psi_un|^2 over (0, rho_max], auto-extending rho_max."""
    rho_max = max(grid_max, 4.0 * geom.rho0)
    eps = 1e-9 * geom.rho0
    for _ in range(60):
        dense = np.linspace(eps, rho_max, 8001)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is the error below
            density = wf.unnormalized(dense) ** 2
        if not np.all(np.isfinite(density)):
            raise SolverError("wavefunction series overflowed during normalization")
        total = simpson(density, dense)
        # exponential tail estimate from the last two samples
        if density[-1] >= density[-2] or density[-1] == 0.0:
            decaying = density[-1] == 0.0
            tail = 0.0 if decaying else math.inf
        else:
            step = dense[-1] - dense[-2]
            rate = math.log(density[-2] / density[-1]) / step
            tail = density[-1] / rate
        if tail <= NORM_TAIL * total:
            return total, rho_max
        rho_max *= 1.6
    raise SolverError("wavefunction tail did not decay while extending the grid")


def _mass_between(wf: WavefunctionSeries, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    seg = np.linspace(lo, hi, 2001)
    return float(simpson(wf.unnormalized(seg) ** 2, seg))
