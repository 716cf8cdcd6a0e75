"""Shifted-l expansion engine for nodeless 2D radial states.

Pipeline for a bound potential V and magnetic quantum number m (l = |m|):

  1. solve_geometry   -- find the expansion point rho0 minimizing the leading
                         energy term, together with the oscillator frequency w,
                         the shift beta and the shifted quantum number lbar.
  2. build_v_series   -- perturbation polynomials v^(n)(x) in the scaled
                         coordinate x = sqrt(lbar) (rho - rho0) / rho0.
  3. solve_hierarchy  -- order-by-order coefficient matching producing the
                         polynomials W_s of the log-derivative series and the
                         eigenvalue corrections lambda^(k).
  4. assemble_energy  -- corrections E^(-2), E^(0), E^(1), ... and cumulative
                         partial sums EN_0..EN_K.

All quantities are in effective Rydberg units (hbar = 2m = 1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .expressions import BoundPotential
from .jets import jet_lift, taylor_coeffs

__all__ = [
    "SolverError",
    "NoStableFrameError",
    "FrequencyUndefinedError",
    "NotAMinimumError",
    "HierarchyInconsistencyError",
    "Geometry",
    "CoefficientTable",
    "EnergyBreakdown",
    "solve_geometry",
    "build_v_series",
    "solve_hierarchy",
    "assemble_energy",
    "solve",
]


class SolverError(RuntimeError):
    """Base class for engine failures."""


class NoStableFrameError(SolverError):
    """No expansion point with an attractive-centrifugal balance was found."""


class FrequencyUndefinedError(SolverError):
    """The radicand of the harmonic frequency is non-positive at the candidate."""


class NotAMinimumError(SolverError):
    """The candidate expansion point is not a minimum of the leading energy."""


class HierarchyInconsistencyError(SolverError):
    """Residual after an order solve exceeded tolerance (degree bookkeeping bug)."""


RESIDUAL_TOL = 1e-9
FRAME_TOL = 1e-12


@dataclass(frozen=True)
class Geometry:
    """Solved expansion frame for a (potential, l) pair.

    The scaled coordinate convention is x = sqrt(lbar) (rho - rho0) / rho0.
    """

    rho0: float
    w: float
    beta: float
    lbar: float
    l: int

    @property
    def Q(self) -> float:
        return self.lbar ** 2


@dataclass(frozen=True)
class CoefficientTable:
    """Hierarchy outputs: W_s as dense vectors in x, lambda^(k), residuals."""

    W: tuple[np.ndarray, ...]
    lambdas: tuple[float, ...]
    residuals: tuple[float, ...]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy corrections and cumulative partial sums.

    ``e_minus2`` multiplies lbar^2; ``corrections[n]`` is E^(n) for n >= 0.
    ``partial_sums[k]`` is EN_k:

        EN_0 = lbar^2 E^(-2)
        EN_1 = EN_0 + E^(0)
        EN_k = EN_{k-1} + E^(k-1) / lbar^(k-1)   (k >= 2)
    """

    e_minus2: float
    corrections: tuple[float, ...]
    partial_sums: tuple[float, ...]
    e_minus1: float  # identically ~0 by the choice of beta; kept as a self-check


# ---------------------------------------------------------------------------
# Geometry

# the logarithmic scan that brackets the roots of the frame equation
RHO_LO, RHO_HI, SCAN_POINTS = 1e-4, 1e4, 400
_SCAN_GRID = np.logspace(math.log10(RHO_LO), math.log10(RHO_HI), SCAN_POINTS)


def _frame(bound: BoundPotential, rho, l: int):
    """(F, w, V'') at rho, a float or an array, from one order-2 expansion.

    F(rho) = sqrt(s) - l - w / 4 with s = rho^3 V'/2, rad = 3 + rho V''/V'
    and w = 2 sqrt(rad); F is NaN where the frame is undefined: non-finite
    V' or V'', V' <= 0, s <= 0 or rad <= 0.
    """
    a = taylor_coeffs(bound, rho, 2)
    v1 = a[1]
    v2 = 2.0 * a[2]
    with np.errstate(all="ignore"):
        s = rho ** 3 * v1 / 2.0
        rad = 3.0 + rho * v2 / v1
        w = 2.0 * np.sqrt(rad)
        F = np.sqrt(s) - l - w / 4.0
        ok = np.isfinite(v1) & np.isfinite(v2) & (v1 > 0.0) & (s > 0.0) & (rad > 0.0)
    return np.where(ok, F, np.nan), w, v2


def solve_geometry(bound: BoundPotential, m: int) -> Geometry:
    """Locate the expansion point rho0 and the derived frame quantities.

    rho0 solves sqrt(rho^3 V'(rho)/2) = l - beta with l = |m| and
    beta = -w/4, which simultaneously makes the leading energy term
    stationary and kills the next-to-leading correction.  The frame function
    evaluated on a logarithmic grid over [RHO_LO, RHO_HI] brackets the roots;
    brentq refines each bracket on the same function at single points, and
    each root is validated from the same order-2 expansion (no finite
    differences).  If several stable frames exist, the one with the lowest
    leading energy wins (with a warning).
    """
    l = abs(m)
    try:
        scan = _frame(bound, _SCAN_GRID, l)[0]
    except ArithmeticError:
        # rho-independent failure (rho^rho, 1/(0)*rho): undefined everywhere
        scan = np.full_like(_SCAN_GRID, np.nan)

    def residual(r):
        return _frame(bound, r, l)[0]  # NaN makes brentq raise ValueError

    roots = [float(r) for r in _SCAN_GRID[scan == 0.0]]
    sign = np.sign(scan)  # NaN where undefined, so no bracket touches it
    for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0):
        try:
            # xtol ~ 0 leaves rtol = 4 eps as the only stop: rho0 to a few ulps
            roots.append(brentq(residual, _SCAN_GRID[i], _SCAN_GRID[i + 1],
                                xtol=1e-300, rtol=8.9e-16))
        except ValueError:
            continue  # frame equation undefined somewhere inside the bracket
    if not roots:
        raise NoStableFrameError(
            "no stable frame: the frame equation has no root in "
            f"[{RHO_LO}, {RHO_HI}] for l={l}"
        )

    candidates: list[Geometry] = []
    for root in roots:
        geom = _finish_frame(bound, root, l)
        if geom is not None:
            candidates.append(geom)
    if not candidates:
        raise FrequencyUndefinedError(
            "frequency undefined or unstable at every candidate expansion point"
        )
    if len(candidates) > 1:
        candidates.sort(key=lambda g: _leading_energy(bound, g))
        warnings.warn(
            f"{len(candidates)} stable frames found; choosing the one with the "
            "lowest leading-order energy",
            stacklevel=2,
        )
    return candidates[0]


def _finish_frame(bound: BoundPotential, rho0: float, l: int):
    """Validate the frame at a refined root; None if F(rho0) misses or is undefined."""
    F, w, v2 = _frame(bound, rho0, l)
    if not abs(F) <= FRAME_TOL * max(1.0, l):
        return None
    w = float(w)
    beta = -w / 4.0
    lbar = l - beta
    Q = lbar ** 2
    # second-derivative test on E^(-2)(rho) = 1/rho^2 + V(rho)/Q at fixed Q
    curvature = 6.0 / rho0 ** 4 + v2 / Q
    if curvature <= 0.0:
        raise NotAMinimumError(
            f"expansion point rho0 = {rho0} is not a minimum of the leading energy"
        )
    return Geometry(rho0=float(rho0), w=w, beta=beta, lbar=lbar, l=l)


def _leading_energy(bound: BoundPotential, geom: Geometry) -> float:
    v0 = float(bound(geom.rho0))
    return geom.Q * (1.0 / geom.rho0 ** 2 + v0 / geom.Q)


# ---------------------------------------------------------------------------
# Perturbation polynomials

def build_v_series(
    bound: BoundPotential, geom: Geometry, max_order: int
) -> tuple[np.ndarray, ...]:
    """Build v^(0)..v^(max_order) as dense coefficient vectors in x.

    v^(n) needs the (n+2)-th derivative of V at rho0; a single jet of order
    max_order + 2 supplies all of them.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    rho0, w, beta, Q = geom.rho0, geom.w, geom.beta, geom.Q
    jet = jet_lift(bound, rho0, max_order + 2)
    a = jet.coeffs  # a[k] = V^(k)(rho0) / k!

    polys: list[np.ndarray] = []
    v0 = np.zeros(3)
    v0[0] = 2.0 * beta
    v0[2] = w * w / 4.0
    polys.append(v0)
    for n in range(1, max_order + 1):
        v = np.zeros(n + 3)
        # the x^(n+2) term: (-1)^n (n+3) + rho0^(n+4) V^(n+2)(rho0) / (Q (n+2)!)
        sign = -1.0 if n % 2 else 1.0
        v[n + 2] = sign * (n + 3) + rho0 ** (n + 4) * a[n + 2] / Q
        if n == 1:
            v[1] = -4.0 * beta
        elif n == 2:
            v[0] = beta * beta - 0.25
            v[2] = 6.0 * beta
        else:
            v[n] = sign * 2.0 * beta * (n + 1)
            v[n - 2] = sign * (beta * beta - 0.25) * (n - 1)
        polys.append(v)
    return tuple(polys)


# ---------------------------------------------------------------------------
# Coefficient hierarchy

def _apply_L(poly: np.ndarray, w: float) -> np.ndarray:
    """L[P] = P' - w x P, the linearized operator of the order-s balance."""
    out = np.zeros(len(poly) + 1)
    for k in range(1, len(poly)):
        out[k - 1] += k * poly[k]
    out[1:] -= w * poly
    return out


def solve_hierarchy(
    v: tuple[np.ndarray, ...], geom: Geometry, max_order: int
) -> CoefficientTable:
    """Run the order-by-order coefficient matching through order 2*max_order.

    Writing the log-derivative of the nodeless state as
        W(x) = sum_s W_s(x) lbar^(-s/2),
    the order-s balance reads
        W_s' - w x W_s = K_s - RHS_s,   K_s = v^(s) - sum_{p+q=s, p,q>=1} W_p W_q,
    with RHS_2 = beta^2 - 1/4 + lambda^(0), RHS_{2k} = lambda^(k-1) for k >= 2
    and RHS_s = 0 at odd s.  Its x^k equation (k+1) c_{k+1} - w c_{k-1} = K_k,
    k >= 1, is triangular in the coefficients c of W_s, solved from the top
    down; at even s the leftover x^0 equation yields the lambda.  After each
    order the full residual is verified.
    """
    n_orders = 2 * max_order
    if len(v) < n_orders + 1:
        raise ValueError(
            f"v-series covers orders 0..{len(v) - 1}, need 0..{n_orders}"
        )
    w, beta = geom.w, geom.beta

    W: list[np.ndarray] = [np.array([0.0, -w / 2.0])]  # W_0 = -(w/2) x
    lambdas: list[float] = []
    residuals: list[float] = []

    for s in range(1, n_orders + 1):
        K = v[s].copy()  # deg v^(s) = s+2 bounds the degree of every cross term
        for p in range(1, s):
            cross = np.convolve(W[p], W[s - p])
            K[: len(cross)] -= cross

        c = np.zeros(len(K) + 1)
        for k in range(len(K) - 1, 0, -1):
            c[k - 1] = ((k + 1) * c[k + 1] - K[k]) / w
        W.append(np.trim_zeros(c, "b") if np.any(c) else np.zeros(1))

        rhs_const = 0.0
        if s % 2 == 0:
            rhs_const = K[0] - c[1]
            lambdas.append(rhs_const - (beta * beta - 0.25) if s == 2 else rhs_const)

        # full residual of the order-s balance: target minus L[W_s]
        res = K.copy()
        res[0] -= rhs_const
        lw = _apply_L(W[s], w)
        res[: len(lw)] -= lw
        res_max = float(np.max(np.abs(res)))
        residuals.append(res_max)
        if res_max > RESIDUAL_TOL:
            raise HierarchyInconsistencyError(
                f"hierarchy inconsistency at order {s}: residual {res_max:.3e}"
            )

    return CoefficientTable(W=tuple(W), lambdas=tuple(lambdas), residuals=tuple(residuals))


# ---------------------------------------------------------------------------
# Energy assembly

def assemble_energy(
    geom: Geometry,
    table: CoefficientTable,
    bound: BoundPotential,
    max_order: int,
) -> EnergyBreakdown:
    """Corrections E^(-2), E^(0)..E^(max_order-1) and partial sums EN_0..EN_max_order."""
    if len(table.lambdas) < max_order:
        raise ValueError(
            f"table holds lambda^(0..{len(table.lambdas) - 1}), need {max_order}"
        )
    rho0, beta, lbar, Q = geom.rho0, geom.beta, geom.lbar, geom.Q
    v_at_rho0 = float(bound(rho0))

    e_minus2 = 1.0 / rho0 ** 2 + v_at_rho0 / Q
    e_minus1 = (2.0 * beta + 0.5 * geom.w) / rho0 ** 2
    corrections = [(beta * beta - 0.25 + table.lambdas[0]) / rho0 ** 2]
    for n in range(1, max_order):
        corrections.append(table.lambdas[n] / rho0 ** 2)

    sums = [lbar ** 2 * e_minus2]
    sums.append(sums[0] + corrections[0])
    for k in range(2, max_order + 1):
        sums.append(sums[k - 1] + corrections[k - 1] / lbar ** (k - 1))

    return EnergyBreakdown(
        e_minus2=e_minus2,
        corrections=tuple(corrections),
        partial_sums=tuple(sums),
        e_minus1=e_minus1,
    )


def solve(
    bound: BoundPotential,
    m: int,
    max_order: int = 3,
) -> tuple[Geometry, CoefficientTable, EnergyBreakdown]:
    """End-to-end solve: frame, hierarchy and energy for a nodeless state."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    geom = solve_geometry(bound, m)
    v = build_v_series(bound, geom, 2 * max_order)
    table = solve_hierarchy(v, geom, max_order)
    breakdown = assemble_energy(geom, table, bound, max_order)
    return geom, table, breakdown
