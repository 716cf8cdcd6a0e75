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
from functools import lru_cache

import numpy as np

from .engine import CoefficientTable, Geometry, SolverError

__all__ = ["GridError", "WavefunctionSeries", "synthesize_wavefunction"]


class GridError(ValueError):
    """The sampling grid is malformed or misses the wavefunction's support."""


TAIL_FRACTION = 1e-6  # user grid must capture all but this much of the mass
NORM_TAIL = 1e-8  # internal normalization grid extends until tail < this
NODES_PER_WIDTH = 3  # Gauss-Legendre nodes per frame width rho0/sqrt(lbar w)


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

    # rows[t + 2][k]: coefficient of y^k at lbar^(-t/2), t = s - k; W_s holds
    # s + 2 coefficients, so each entry takes one term of W_s's x-integral
    W = np.concatenate(table.W)
    s = np.repeat(np.arange(S + 1), np.arange(2, S + 3))
    k = np.arange(1, len(W) + 1) - s * (s + 3) // 2
    rows = np.zeros((S + 2, S + 3))
    rows[s - k + 2, k] = W / k

    # subtract the truncated log series: coefficient 1 at lbar^(+1) (t = -2)
    # and beta + 1/2 at lbar^0 (t = 0); their sum is lbar + beta + 1/2 = l + 1/2
    log_power = geom.l + 0.5
    blocks = {t: rows[t + 2, : S - t + 1] for t in range(-2, S)}
    for t, coef in ((-2, 1.0), (0, geom.beta + 0.5)):
        blk, k = blocks[t], np.arange(1, S - t + 1)
        blk[1:] -= coef * (-1.0) ** (k + 1) / k
        # noise in a block that is linear but for it (closed-form states) grows as
        # y^k far out, so it goes; in a block with terms of its own it stays
        if np.all(np.abs(blk[2:]) <= 4 * np.finfo(float).eps * np.abs(coef / k[1:])):
            blk[2:] = 0.0

    # drop blocks that cancelled to rounding noise
    return log_power, {t: blk for t, blk in blocks.items() if np.max(np.abs(blk)) > 1e-13}


def synthesize_wavefunction(
    geom: Geometry,
    table: CoefficientTable,
    grid,
) -> WavefunctionSeries:
    """Normalized nodeless wavefunction sampled on ``grid`` (strictly increasing finite rho > 0).

    Normalization integrates |Psi|^2 by Gauss-Legendre, stretch by stretch from
    rho ~ 0 until the tail mass drops below 1e-8, wherever the grid ends; the
    stretch holding the grid's end is split there, which gives the mass beyond.
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

    # overflow is an error below; psi = 0 where y = rho/rho0 - 1 rounds to -1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        samples = wf.unnormalized(grid)
        norm_sq, beyond = _whole_line_mass(wf, grid, samples**2)
    norm = math.sqrt(norm_sq)
    psi = samples / norm
    radial = psi / np.sqrt(grid)

    # coverage check: mass beyond the user grid's last point
    tail = beyond / norm_sq
    if tail > TAIL_FRACTION:
        raise GridError(
            f"grid does not cover the support: tail mass fraction {tail:.2e}"
        )

    return replace(wf, psi=psi, radial=radial, norm=norm)


def simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson integral of samples ``y`` at increasing points ``x``, an odd count.

    The same operations as scipy.integrate.simpson (scipy 1.17) on an odd
    number of samples, so the two agree bit for bit.  Only the benchmark's span
    binding ``wavefunction.simpson`` and its two tests use it: the change to the
    benchmark that drops that binding deletes them (ROADMAP 6(a)).
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


def _whole_line_mass(wf: WavefunctionSeries, grid: np.ndarray, grid_density: np.ndarray):
    """Mass of |Psi_un|^2 over (0, inf) and, tail left out, the part of it beyond ``grid[-1]``.

    Integrates (0, 4 rho0], then each stretch 1.6x further, until the tail is
    below NORM_TAIL of the total and no ``grid_density`` beyond is denser.
    A stretch gets NODES_PER_WIDTH Gauss-Legendre nodes per frame width (d/2 times that for
    exponent degree d > 2) on up to 256 equal panels of 32-256 nodes; the tail, overflow and
    grows-again checks read its last node and its end b.
    """
    geom, end = wf.geometry, float(grid[-1])
    lo, hi = 0.0, 4.0 * geom.rho0
    degree = max(np.flatnonzero(b)[-1] for b in wf.blocks.values())  # blocks[-2][1] = -1 always
    per_rho = NODES_PER_WIDTH * max(degree, 2) / 2 * math.sqrt(geom.lbar * geom.w) / geom.rho0
    total = within = 0.0
    for _ in range(60):
        for a, b in ((lo, end), (end, hi)) if lo < end < hi else ((lo, hi),):
            need = per_rho * (b - a)
            panels = min(max(math.ceil(need / 256), 1), 256)
            nodes, wts = _gauss_legendre(16 * min(max(math.ceil(need / panels / 16), 2), 16))
            if panels > 1:  # the same rule on each of the equal panels of [-1, 1]
                nodes = ((2.0 * np.arange(panels)[:, None] + 1.0 + nodes) / panels - 1.0).ravel()
                wts = np.tile(wts / panels, panels)
            rho = np.append(a + (b - a) / 2 * (nodes + 1.0), b)
            density = wf.unnormalized(rho) ** 2
            if not np.all(np.isfinite(density)):
                raise SolverError("wavefunction series overflowed during normalization")
            total += (b - a) / 2 * np.dot(wts, density[:-1])
            if b <= end:
                within = total
        # exponential tail estimate from the last two samples
        if density[-1] >= density[-2] or density[-1] == 0.0:
            tail = 0.0 if density[-1] == 0.0 else math.inf
        else:
            tail = density[-1] * (rho[-1] - rho[-2]) / math.log(density[-2] / density[-1])
        # a series that grows again at the user grid's samples is followed there
        if tail <= NORM_TAIL * total and np.all(grid_density[grid > hi] <= density[-1]):
            return total + tail, total - within
        lo, hi = hi, 1.6 * hi
    raise SolverError("wavefunction tail did not decay while extending the grid")


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    from numpy.polynomial.legendre import leggauss  # 3-6 ms to import, so only when needed
    return leggauss(n)
