"""Shifted-l expansion engine for nodeless 2D radial states.

Four internal steps of ``solve_batch``, each over a batch of BoundPotentials
of one PotentialSpec at one magnetic quantum number m (l = |m|):

  1. solve_geometry(rows, m)  -- the expansion point rho0 minimizing the leading
       energy term, the oscillator frequency w, the shift beta and lbar = l - beta.
  2. build_v_series(rows, geoms, max_order)  -- perturbation polynomials v^(n)(x)
       in the scaled coordinate x = sqrt(lbar) (rho - rho0) / rho0.
  3. solve_hierarchy(v, geoms, max_order)  -- the polynomials W_s of the
       log-derivative series and the eigenvalue corrections lambda^(k).
  4. assemble_energy(geoms, tables, max_order)  -- corrections E^(-2), E^(0),
       E^(1), ... and cumulative partial sums EN_0..EN_K.

Each stage gives each row its result or its error, and each stage takes the
rows left, relying unchecked on what the stage before made.  ``solve`` is the
batch of one, so a row gives the same bits alone or in any batch.

All quantities are in effective Rydberg units (hbar = 2m = 1).
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .expressions import (
    BoundPotential,
    Neg,
    Num,
    Param,
    PotentialEvalError,
    PotentialSpec,
    Rho,
    evaluate,
    float_pow,
)
from .jets import jet_lift, taylor_jet

__all__ = [
    "SolverError",
    "NoStableFrameError",
    "FrequencyUndefinedError",
    "HierarchyInconsistencyError",
    "Geometry",
    "CoefficientTable",
    "EnergyBreakdown",
    "solve",
    "solve_batch",
]


class SolverError(RuntimeError):
    """Base class for engine failures."""


class NoStableFrameError(SolverError):
    """No expansion point with an attractive-centrifugal balance was found."""


class FrequencyUndefinedError(SolverError):
    """No candidate expansion point solves the frame equation to FRAME_TOL."""


class HierarchyInconsistencyError(SolverError):
    """A residual above RESIDUAL_TOL: high-order rounding grew (Coulomb m = 1, 2 at K >= 20)."""


RESIDUAL_TOL = 1e-9
FRAME_TOL = 1e-12
# solve_batch's highest order: the gathers that _products caches for each
# order s take about s^3 / 16 index pairs, 58 MB over the orders s <= 120 of K = 60
MAX_ORDER = 60


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
    v0: float  # V(rho0)

    @property
    def Q(self) -> float:
        return self.lbar ** 2


@dataclass(frozen=True)
class CoefficientTable:
    """Hierarchy outputs: W_s as dense vectors in x, lambda^(k), residuals.

    W_s holds s + 2 coefficients (degree s + 1), trailing zeros included.
    """

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
    e_minus1: float  # (2 beta + w/2) / rho0^2: exactly 0.0 for finite w, as beta = -w/4 exactly


# ---------------------------------------------------------------------------
# Geometry

# the logarithmic scan that brackets the roots of the frame equation
RHO_LO, RHO_HI, SCAN_POINTS = 1e-4, 1e4, 400
_SCAN_GRID = np.logspace(math.log10(RHO_LO), math.log10(RHO_HI), SCAN_POINTS)
_SCAN_CUBES = float_pow(_SCAN_GRID, 3.0)


# the frame's elementwise primitives for a float and for an array: a square root
# NaN below zero, the division by V' (NaN at V' = 0, where F is undefined), a select
_FLOAT_OPS = (lambda x: math.sqrt(x) if x >= 0.0 else math.nan,
              lambda x, y: x / y if y != 0.0 else math.nan,
              math.isfinite, lambda ok, F: F if ok else math.nan)
_ARRAY_OPS = (np.sqrt, np.divide, np.isfinite, lambda ok, F: np.where(ok, F, np.nan))


def _frame(bound: BoundPotential, rho, l: int, rho3=None):
    """(F, w, a) at rho, a float or an array, from one order-2 expansion.

    ``a`` holds the coefficients V, V', V''/2.  F(rho) = sqrt(s) - l - w / 4
    with s = rho^3 V'/2, rad = 3 + rho V''/V' and w = 2 sqrt(rad); F is NaN
    where the frame is undefined: non-finite V' or V'', s <= 0 (V' <= 0) or
    rad <= 0.  A float runs on ``math`` and an array on numpy, with the same
    IEEE operations, so F (and w and V where F is defined) does not depend on
    the shape of ``rho``; ``rho3``, if given, is ``float_pow(rho, 3.0)``.
    """
    point = isinstance(rho, float)
    sqrt, div, isfinite, select = _FLOAT_OPS if point else _ARRAY_OPS
    a = taylor_jet(bound, rho, 2)
    with contextlib.nullcontext() if point else np.errstate(all="ignore"):
        v1, v2 = a[1], 2.0 * a[2]
        s = (float_pow(rho, 3.0) if rho3 is None else rho3) * v1 / 2.0
        rad = 3.0 + div(rho * v2, v1)
        w = 2.0 * sqrt(rad)
        F = sqrt(s) - l - w / 4.0
        ok = isfinite(v1) & isfinite(v2) & (s > 0.0) & (rad > 0.0)
    return select(ok, F), w, a


# up to this many points or rows go one by one on floats (BENCH_small_batch.json;
# BENCH_batch_once.json for the hierarchy's back-substitution)
_FEW = 3

# brentq's stopping rule, scipy's with xtol ~ 0: rtol = 4 eps is the only stop
_RTOL, _MAXITER = 8.9e-16, 100


def brentq(f, a, b, fa, fb) -> list:
    """Roots in the brackets [a[i], b[i]] by Brent's method, all brackets in lockstep.

    Each bracket (a lane) takes exactly the steps of scipy.optimize.brentq
    (Brent 1973, as in scipy's C routine), so it ends on the same float.
    ``fa`` and ``fb``, the function at the ends, are non-NaN, nonzero and of
    opposite signs, and the ends lie in [RHO_LO, RHO_HI], as the scan gives
    them; there scipy's xtol = 1e-300 is below an ulp of its rtol |x|.
    ``f(lanes, x)`` is called once per iteration with the live lanes and one
    point each, and returns each lane's function at its point.  A lane's
    result is None where f was NaN or ``_MAXITER`` iterations did not
    converge: the cases in which scipy raises.

    Do not change which float a lane ends on: the last bit of rho0 decides
    whether Coulomb is exact at high order.  For Coulomb m = 0, F is 0 at both
    0.25000000000000006 (this root) and 0.24999999999999997, but |EN15 - exact|
    is 3.6e-15 at the first and 3.1e6 at the second.
    """
    roots: list = [None] * len(a)
    # lane -> [xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, iterations]
    live = {i: [xpre, xcur, 0.0, fpre, fcur, 0.0, 0.0, 0.0, 0] for i, (xpre, xcur, fpre, fcur)
            in enumerate(zip(map(float, a), map(float, b), map(float, fa), map(float, fb)))}
    while live:
        lanes, points = [], []
        for i, (xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, it) in list(live.items()):
            if it == _MAXITER:
                del live[i]  # not converged
                continue
            if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
                xblk, fblk = xpre, fpre
                spre = scur = xcur - xpre
            if abs(fblk) < abs(fcur):
                xpre, xcur, xblk = xcur, xblk, xcur
                fpre, fcur, fblk = fcur, fblk, fcur
            delta = _RTOL * abs(xcur) / 2.0
            sbis = (xblk - xcur) / 2.0
            if fcur == 0.0 or abs(sbis) < delta:
                roots[i] = xcur
                del live[i]
                continue
            if abs(spre) > delta and abs(fcur) < abs(fpre):
                try:
                    if xpre == xblk:  # interpolate
                        stry = -fcur * (xcur - xpre) / (fcur - fpre)
                    else:  # extrapolate
                        dpre = (fpre - fcur) / (xpre - xcur)
                        dblk = (fblk - fcur) / (xblk - xcur)
                        stry = (-fcur * (fblk * dblk - fpre * dpre)
                                / (dblk * dpre * (fblk - fpre)))
                except ZeroDivisionError:
                    stry = math.inf  # C gives inf or NaN: either way a bisection
                limit = 3.0 * abs(sbis) - delta
                if 2.0 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                    spre, scur = scur, stry  # good short step
                else:
                    spre = scur = sbis
            else:
                spre = scur = sbis
            xpre, fpre = xcur, fcur
            xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
            live[i] = [xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, it + 1]
            lanes.append(i)
            points.append(xcur)
        for i, fx in zip(lanes, f(lanes, points) if lanes else ()):
            if math.isnan(fx):
                del live[i]
            else:
                live[i][4] = fx
    return roots


def _frames_at(rows: list, values, points: list, l: int) -> list:
    """(rho, F, w, V) as floats at each (row, rho) of ``points``.

    ``rows`` holds each row's BoundPotential and ``values`` their parameter
    columns (see ``_columns``).  Up to ``_FEW`` points are expanded one by one
    as floats, which keeps lone and small solves off numpy, and more as one
    array; both give the same F, and w and V where F is defined.
    """
    if len(points) <= _FEW:
        frames = [_frame(rows[i], rho, l) for i, rho in points]
        return [(rho, F, w, a[0]) for (_, rho), (F, w, a) in zip(points, frames)]
    owners, rho = map(list, zip(*points))
    picked = {k: v[owners] if isinstance(v, np.ndarray) else v for k, v in values.items()}
    F, w, a = _frame(BoundPotential(rows[0].spec, picked), np.array(rho), l)
    return list(zip(rho, F.tolist(), w.tolist(), a[0].tolist()))


def _columns(rows: list) -> dict:
    """Each parameter of ``rows``: a float if every row holds its bits, else an array."""
    values = {}
    for k in rows[0].spec.params:
        column = [row.values[k] for row in rows]
        values[k] = column[0] if len(set(map(float.hex, column))) == 1 else np.array(column)
    return values


def _scan(spec: PotentialSpec, values, n: int, l: int) -> np.ndarray:
    """F of each of ``n`` rows on the scan grid, shape (n, SCAN_POINTS), in one walk.

    The grid is one row against (n, 1) parameter columns, so a term of rho
    alone is formed once and broadcast; the result may be a read-only view.
    Each entry equals ``_frame`` at that grid point alone.
    """
    columns = {k: v[:, None] if isinstance(v, np.ndarray) else v for k, v in values.items()}
    try:
        F = _frame(BoundPotential(spec, columns), _SCAN_GRID[None, :], l, _SCAN_CUBES)[0]
    except ArithmeticError:
        # rho-independent failure (rho^rho, 1/(0)*rho): undefined everywhere
        F = np.nan
    return np.broadcast_to(F, (n, SCAN_POINTS))


def solve_geometry(rows: list, m: int) -> list:
    """The expansion frame of each BoundPotential in ``rows``, or the row's SolverError.

    rho0 solves sqrt(rho^3 V'(rho)/2) = l - beta with l = |m| and
    beta = -w/4, which simultaneously makes the leading energy term
    stationary and kills the next-to-leading correction.  One walk of the
    tree evaluates every row's frame function F on a logarithmic grid over
    [RHO_LO, RHO_HI]; its sign changes bracket the roots, which one lockstep
    ``brentq`` refines on the same function, keeping each step's expansion;
    a root that no step expanded (a grid root, or one on a bracket end) is
    expanded then.  ``_finish_frame`` validates every root from its order-2
    expansion (no finite differences).  A row with a parameter-only term
    that fails has a frame equation undefined everywhere: in a batch with a
    parameter column, ``_fails_alone`` walks each row for it, but only where
    ``_a_parameter_can_raise`` finds a term that can (never in the hybrid).
    If a row has several stable frames, the one with the lowest leading
    energy wins (with a warning).
    """
    l = abs(m)
    values = _columns(rows)
    spec = rows[0].spec
    scan = _scan(spec, values, len(rows), l)
    if (any(isinstance(v, np.ndarray) for v in values.values())
            and _a_parameter_can_raise(spec.tree)[2]):
        # alone, such a row's walk raises; in a batch, only its entries go bad
        failed = np.array([_fails_alone(row) for row in rows])
        scan = np.where(failed[:, None], np.nan, scan)

    roots: list = [[] for _ in rows]
    owners, cells = np.nonzero(scan == 0.0)  # row-major: each row's grid roots ascend
    for i, root in zip(owners.tolist(), _SCAN_GRID[cells].tolist()):
        roots[i].append(root)
    sign = np.sign(scan)  # NaN where undefined, so no bracket touches it
    owners, cells = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0.0)
    walked: dict = {}  # (row, rho) -> (rho, F, w, V) of every point expanded after the scan
    if len(owners):
        def frame_f(lanes, x):
            points = list(zip(owners[lanes].tolist(), x))
            walked.update(zip(points, _frames_at(rows, values, points, l)))
            return [walked[p][1] for p in points]

        # The scan's entries are the frame function at the bracket ends, as
        # lone points give it; rho0 comes to a few ulps.
        found = brentq(frame_f, _SCAN_GRID[cells], _SCAN_GRID[cells + 1],
                       scan[owners, cells], scan[owners, cells + 1])
        for i, root in zip(owners.tolist(), found):
            if root is not None:
                roots[i].append(root)

    # only a grid root, or a root on a bracket end, was not expanded by a step
    points = [(i, r) for i, rs in enumerate(roots) for r in rs]
    fresh = [p for p in points if p not in walked]
    walked.update(zip(fresh, _frames_at(rows, values, fresh, l)))
    checked = iter(_finish_frame([walked[p] for p in points], l) if points else ())

    frames = []
    for rs in roots:
        if not rs:
            frames.append(NoStableFrameError(
                "no stable frame: the frame equation has no root in "
                f"[{RHO_LO}, {RHO_HI}] for l={l}"
            ))
            continue
        results = [next(checked) for _ in rs]
        candidates = [r for r in results if isinstance(r, Geometry)]
        if not candidates:
            frames.append(results[0])  # the first root's FrequencyUndefinedError
            continue
        if len(candidates) > 1:
            candidates.sort(key=lambda g: g.Q * (1.0 / g.rho0 ** 2 + g.v0 / g.Q))
            frame, level = sys._getframe(), 1  # name the first caller outside pslet2d
            while frame.f_globals.get("__name__", "").startswith("pslet2d."):
                frame, level = frame.f_back, level + 1
            warnings.warn(
                f"{len(candidates)} stable frames found; choosing the one with the "
                "lowest leading-order energy",
                stacklevel=level,
            )
        frames.append(candidates[0])
    return frames


def _finish_frame(points: list, l: int) -> list:
    """The frame at each refined root from its (rho0, F, w, V).

    Gives per root a Geometry, or a FrequencyUndefinedError where |F(rho0)|
    exceeds FRAME_TOL max(1, l), as where F changes sign across a kink or a
    pole of V.  Every Geometry is a minimum of the leading energy
    E^(-2)(rho) = 1/rho^2 + V(rho)/Q: at a root its second derivative is
    2 rad / rho0^4, and ``_frame`` gives F only where rad > 0.
    """
    tol = FRAME_TOL * max(1.0, l)
    return [Geometry(rho0=rho0, w=w, beta=-w / 4.0, lbar=l + w / 4.0, l=l, v0=v0)
            if abs(F) <= tol else FrequencyUndefinedError(
                "no candidate expansion point solves the frame equation: the first, "
                f"rho0 = {rho0}, leaves F(rho0) = {F:.3g}, beyond the tolerance {tol:.0e}")
            for rho0, F, w, v0 in points]


# ---------------------------------------------------------------------------
# Perturbation polynomials

# v^(n)'s constant factors, n = 1..2 MAX_ORDER: (-1)^n (n+3) for x^(n+2);
# (-1)^n 2 and n + 1 for x^n; (-1)^n and n - 1 for x^(n-2)
_N = np.arange(1, 2 * MAX_ORDER + 1)
_SIGN = np.where(_N % 2 == 1, -1.0, 1.0)
_TOP, _MID_F, _MID_G, _LOW_G = _SIGN * (_N + 3), _SIGN * 2.0, _N + 1.0, _N - 1.0


def build_v_series(rows: list, geoms: list, max_order: int) -> tuple[list, list]:
    """v^(0)..v^(max_order) of each BoundPotential in ``rows`` about its frame in ``geoms``.

    v^(n) needs the (n+2)-th derivative of V at rho0: one jet of order
    max_order + 2 about every rho0 supplies all of them: one array lift above
    ``_FEW`` rows, else (or where it fails) a float lift per row, for its own
    error.  Returns the (rows, n + 3) arrays in x of the rows left, and per
    row None or its PotentialEvalError: a jet not finite, or rho0^(n+4) overflowing.
    """
    M, failed, a = max_order, [None] * len(rows), None
    if len(rows) > _FEW:
        with contextlib.suppress(PotentialEvalError):  # some row's jet is not finite
            a = jet_lift(BoundPotential(rows[0].spec, _columns(rows)),
                         np.array([g.rho0 for g in geoms]), M + 2).T
    if a is None:
        a = []
        for i, (row, g) in enumerate(zip(rows, geoms)):
            try:
                a.append(jet_lift(row, g.rho0, M + 2))
            except PotentialEvalError as exc:
                failed[i] = exc
    live = [i for i, e in enumerate(failed) if e is None]
    if not live:
        return [], failed
    a = np.array(a)  # a[r, k]: row r's V^(k)(rho0) / k!
    rho0, w, beta, Q = np.array([(g.rho0, g.w, g.beta, g.Q) for g in geoms])[live].T
    scale = float_pow(rho0, [n + 4.0 for n in range(1, M + 1)])
    out = np.zeros((len(live), M + 1, M + 3))  # out[r, n, k]: the x^k term of v^(n)
    flat = out.reshape(len(live), -1)  # so (n, n + c) lies at n (M + 4) + c
    with np.errstate(all="ignore"):
        bb = beta * beta - 0.25
        out[:, 0, 0] = 2.0 * beta  # v^(0) = 2 beta + (w^2 / 4) x^2
        out[:, 0, 2] = w * w / 4.0
        # the x^(n+2) term: (-1)^n (n+3) + rho0^(n+4) V^(n+2)(rho0) / (Q (n+2)!)
        flat[:, M + 6::M + 4] = _TOP[:M] + scale * a[:, 3:] / Q[:, None]
        flat[:, M + 4::M + 4] = _MID_F[:M] * beta[:, None] * _MID_G[:M]  # (-1)^n 2 beta (n+1) x^n
        # (-1)^n (beta^2 - 1/4) (n-1) x^(n-2), n >= 2
        flat[:, 2 * M + 6::M + 4] = _SIGN[1:M] * bb[:, None] * _LOW_G[1:M]
    for i, over in zip(live, np.isinf(scale).tolist()):
        if any(over):
            failed[i] = PotentialEvalError(f"v-series overflow: rho0^{over.index(True) + 5} "
                                           f"exceeds the float range at rho0 = {geoms[i].rho0}")
    out = out[[failed[i] is None for i in live]]
    return [out[:, n, :n + 3] for n in range(M + 1)], failed


# ---------------------------------------------------------------------------
# Coefficient hierarchy

# A batch hierarchy keeps v and W in one (slots, rows) array of blocks of
# _STRIDE slots, slots first so that a gather takes whole rows.  Block 0
# holds +0.0, -0.0 and 1.0 in slots 0, 1 and 2, and from slot 3 on the
# v^(s) of the order being solved, up to 2 MAX_ORDER + 3 coefficients.
# Block s + 1 holds +0.0 and then W_s, with s + 2 coefficients (degree
# s + 1), padded with +0.0.  The stride is set by MAX_ORDER, so no slot
# depends on the highest order of a call.
_STRIDE = 2 * MAX_ORDER + 6


@functools.lru_cache(maxsize=None)
def _products(s: int) -> tuple[np.ndarray, np.ndarray]:
    """The gather that forms K_s's entries j = s (mod 2), the only live ones.

    Returns (ab, terms).  ``ab`` holds (2, terms, (pairs + 1) * (s//2 + 2))
    slot indices: entry o of block k, j = s % 2 + 2 o, sums ab[0, t] * ab[1, t]
    over t.  Block 0 is v^(s) times 1.0.  Block k >= 1 is W_p W_(s-p) with
    p = k <= s/2, summed over the live terms i = p + 1 (mod 2) only, in the
    index order of the shorter factor W_p.  The full sum's other terms are
    +0.0 * +0.0; np.add.reduce starts from +0.0, which does what they did:
    an all -0.0 sum ends +0.0.  Padding terms multiply +0.0 by -0.0, and
    adding -0.0 leaves every sum as it is.  ``terms`` lists the block of
    v^(s) and then of each product that K_s subtracts, in the order p = 1..s-1.
    """
    n, pairs, most = s // 2 + 2, s // 2, (s // 2 + 3) // 2  # most: a sum's most live terms
    p = np.arange(1, pairs + 1)[:, None, None]
    j = s % 2 + 2 * np.arange(n)[None, :, None]
    lo = np.maximum(0, j - (s - p + 1))
    i = lo + (lo + p + 1) % 2 + 2 * np.arange(most)  # W_p's live indices, term by term
    used = i <= np.minimum(p + 1, j)
    ab = np.zeros((2, most, (pairs + 1) * n), dtype=np.intp)
    ab[1] = 1
    ab[:, 0, :n] = [3 + j.ravel(), [2] * n]
    pair_ab = np.stack((np.where(used, (p + 1) * _STRIDE + 1 + i, 0),
                        np.where(used, (s - p + 1) * _STRIDE + 1 + j - i, 1)))
    ab[:, :, n:] = pair_ab.transpose(0, 3, 1, 2).reshape(2, most, -1)  # terms, pairs * n
    terms = np.array([0] + [min(p, s - p) for p in range(1, s)], dtype=np.intp)
    return ab, terms


def solve_hierarchy(v: list, geoms: list, max_order: int) -> list:
    """Run the order-by-order coefficient matching through order 2*max_order.

    Writing the log-derivative of the nodeless state as
        W(x) = sum_s W_s(x) lbar^(-s/2),
    the order-s balance reads
        W_s' - w x W_s = K_s - RHS_s,   K_s = v^(s) - sum_{p+q=s, p,q>=1} W_p W_q,
    with RHS_2 = beta^2 - 1/4 + lambda^(0), RHS_{2k} = lambda^(k-1) for k >= 2
    and RHS_s = 0 at odd s.  Its x^k equation (k+1) c_{k+1} - w c_{k-1} = K_k,
    k >= 1, is triangular in the coefficients c of W_s, solved from the top
    down by c_(k-1) = ((k+1) c_(k+1) - K_k) / w: on each row's Python floats
    up to ``_FEW`` rows, else once per order on numpy row columns, the same
    IEEE operations entry by entry; at even s the leftover x^0 equation
    yields the lambda.  Once every order is solved, each order's full
    residual is checked: one above RESIDUAL_TOL, or not finite, is an error.

    ``geoms`` holds the Geometry of each row of a batch and each v^(n) is an
    (rows, n + 3) array with only terms of n's parity, as ``build_v_series``
    makes it.  W_s then has parity (-1)^(s+1), and the back-substitution runs
    only the chain c_(s+1), c_(s-1), ...; the other c keep their +0.0, which
    the dead chain gives while the earlier W are finite.  Gives per row a
    CoefficientTable or a HierarchyInconsistencyError; a row's numbers do not
    depend on the rows beside it.

    The products use no BLAS, so their bits do not depend on the host.  Each
    unordered pair W_p W_q, p <= q, is formed once, each coefficient summed
    in W_p's index order, and K_s subtracts the products in the order
    p = 1, 2, ...: high orders amplify rounding, and summing the products
    first moves Coulomb's K = 30 error at m = 0 from 0.028 to 7.8e14.  Only
    K_s's entries of s's parity are formed, from the products' live terms;
    the others keep +0.0, as full sums give them while the W are finite.
    """
    n_orders = 2 * max_order
    w, beta = np.array([(g.w, g.beta) for g in geoms]).T
    w_rows, few = w.tolist(), len(geoms) <= _FEW
    blocks = np.zeros((n_orders + 2, _STRIDE, len(geoms)))
    blocks[0, 1:3] = [[-0.0], [1.0]]
    B = blocks.reshape(-1, len(geoms))
    W = blocks[1:]  # W[s, j + 1] is W_s[j], and W[s, 0] is +0.0
    W[0, 2] = -w / 2.0  # W_0 = -(w/2) x
    K = np.zeros((n_orders + 1, n_orders + 3, len(geoms)))  # K[s, j]: K_s[j], padded

    with np.errstate(all="ignore"):
        for s in range(1, n_orders + 1):
            blocks[0, 3:s + 6] = v[s].T
            ab, terms = _products(s)
            # the terms lie on axis 0, alone (s = 1) or before at least four
            # entries, so both reductions add in axis-0 order and never pairwise
            x = B.take(ab, axis=0)
            sums = np.add.reduce(x[0] * x[1], axis=0).reshape(-1, s // 2 + 2, len(geoms))
            K[s, s % 2:s + 3:2] = np.subtract.reduce(sums.take(terms, axis=0), axis=0)
            if few:
                top = []
                for k, w_row in zip(K[s, :s + 3].T.tolist(), w_rows):
                    c = [0.0] * (s + 4)
                    for j in range(s + 2, 0, -2):
                        c[j - 1] = ((j + 1) * c[j + 1] - k[j]) / w_row
                    top.append(c[:s + 2])
                W[s, 1:s + 3].T[...] = top
            else:  # the same recurrence on row columns; W[s, j + 1] is c_j
                for j in range(s + 2, 0, -2):
                    W[s, j] = ((j + 1) * W[s, j + 2] - K[s, j]) / w

        # the lambdas from each even order's x^0 equation, then every order's
        # residual K_s - RHS_s - ((j+1) W_s[j+1] - w W_s[j-1]), padding included
        rhs = K[2::2, 0] - W[2::2, 2]
        lambdas = rhs.copy()
        lambdas[0] -= beta * beta - 0.25
        K[2::2, 0] -= rhs
        j1 = np.arange(1.0, n_orders + 4)[:, None]  # j + 1
        res = np.abs(K[1:] - (j1 * W[1:, 2:n_orders + 5] - w * W[1:, :n_orders + 3]))
        res_max = np.maximum.reduce(res, axis=1)  # a NaN wins

    out = []
    W_rows = np.ascontiguousarray(W[:, 1:n_orders + 3].transpose(2, 0, 1))
    for row, row_res, row_lambdas in zip(W_rows, res_max.T.tolist(), lambdas.T.tolist()):
        bad = next((s for s, r in enumerate(row_res, 1) if not r <= RESIDUAL_TOL), None)
        if bad is not None:
            out.append(HierarchyInconsistencyError(
                f"hierarchy inconsistency at order {bad}: residual {row_res[bad - 1]:.3e}"
            ))
        else:
            out.append(CoefficientTable(
                W=tuple(row[s, :s + 2] for s in range(n_orders + 1)),
                lambdas=tuple(row_lambdas),
                residuals=tuple(row_res),
            ))
    return out


# ---------------------------------------------------------------------------
# Energy assembly

def assemble_energy(geoms: list, tables: list, max_order: int) -> list:
    """Corrections E^(-2), E^(0)..E^(max_order-1) and partial sums EN_0..EN_max_order.

    ``geoms`` and ``tables`` are lists of Geometries and their CoefficientTables,
    one entry per row of a batch; gives per row an EnergyBreakdown, or a
    SolverError naming the first partial sum that is not finite (V(rho0) / Q
    may overflow).
    """
    rho0, w, beta, lbar, v0 = np.array([(g.rho0, g.w, g.beta, g.lbar, g.v0) for g in geoms]).T
    lambdas = np.array([t.lambdas[:max_order] for t in tables])
    # rho0^2, then lbar^2 = Q and lbar^k, k >= 1
    exponents = [2.0] + [float(k) for k in range(1, max_order)]
    powers = float_pow(np.concatenate((rho0, lbar)), exponents)
    rho0_2, Q, lbar_k = powers[:len(geoms), 0], powers[len(geoms):, 0], powers[len(geoms):, 1:]

    with np.errstate(all="ignore"):
        e_minus2 = 1.0 / rho0_2 + v0 / Q
        e_minus1 = (2.0 * beta + 0.5 * w) / rho0_2
        corrections = lambdas / rho0_2[:, None]
        corrections[:, 0] = (beta * beta - 0.25 + lambdas[:, 0]) / rho0_2
        # EN_0 = Q E^(-2), EN_1 = EN_0 + E^(0), EN_k = EN_(k-1) + E^(k-1) / lbar^(k-1),
        # added left to right
        sums = np.add.accumulate(np.concatenate(
            ((Q * e_minus2)[:, None], corrections[:, :1], corrections[:, 1:] / lbar_k), axis=1),
            axis=1)

    out = []
    for e2, c, s, e1 in zip(e_minus2.tolist(), corrections.tolist(), sums.tolist(),
                            e_minus1.tolist()):
        bad = next((k for k, x in enumerate(s) if not math.isfinite(x)), None)
        out.append(SolverError(f"partial sum EN{bad} = {s[bad]} is not finite") if bad is not None
                   else EnergyBreakdown(e_minus2=e2, corrections=tuple(c), partial_sums=tuple(s),
                                        e_minus1=e1))
    return out


def solve(
    bound: BoundPotential,
    m: int,
    max_order: int = 3,
) -> tuple[Geometry, CoefficientTable, EnergyBreakdown]:
    """End-to-end solve: frame, hierarchy and energy for a nodeless state."""
    result = solve_batch([bound], m, max_order)[0]
    if isinstance(result, Exception):
        raise result
    return result


def _fails_alone(bound: BoundPotential) -> bool:
    """True if a parameter-only term raises, as it would in a solve of this row alone.

    The walk takes rho = NaN: every term that depends on rho is then a float
    NaN, on which neither ``evaluate``'s checks nor float ``**`` raise, so
    only a term of the parameters alone can.
    """
    try:
        evaluate(bound.spec.tree, math.nan, bound.values)
    except ArithmeticError:
        return True
    return False


def _a_parameter_can_raise(node) -> tuple[bool, bool, bool]:
    """(depends on a parameter, may be a plain float, a parameter can make a term raise).

    Read from the tree alone, for a lone solve's walk, where a term free of
    rho is a plain float and only a plain float raises: at a ``/`` by zero,
    or at a ``^`` of a non-positive base, an overflow or a non-finite
    exponent.  So a parameter can make a term raise only at a ``/`` whose
    divisor depends on a parameter and may be a plain float (free of rho, or
    rho raised to a power that may be 0), or at a ``^`` whose exponent
    depends on a parameter, or whose base depends on a parameter, may be a
    plain float and is raised to anything but a non-negative integer
    literal.  Where the last entry is False, ``_fails_alone`` gives every row
    of a batch one verdict, and the batch's scan already holds it.
    """
    if isinstance(node, (Num, Rho, Param)):
        return isinstance(node, Param), not isinstance(node, Rho), False
    if isinstance(node, Neg):
        return _a_parameter_can_raise(node.arg)
    (pa, fa, ra), (pb, fb, rb) = _a_parameter_can_raise(node.lhs), _a_parameter_can_raise(node.rhs)
    if node.op != "^":
        return pa or pb, fa and fb, ra or rb or (node.op == "/" and pb and fb)
    p = node.rhs.value if isinstance(node.rhs, Num) else None
    literal = p is not None and 0.0 <= p < 2.0 ** 53 and p.is_integer()
    return pa or pb, fa or p is None or p == 0.0, ra or rb or pb or (pa and fa and not literal)


def solve_batch(rows: list[BoundPotential], m: int, max_order: int = 3) -> list:
    """Solve the BoundPotentials ``rows``, all of one PotentialSpec, at ``m`` in one pass.

    Returns one entry per row: the row's (Geometry, CoefficientTable,
    EnergyBreakdown), or the SolverError or PotentialEvalError that ``solve``
    raises for that row alone.  Every row's numbers equal its lone solve bit
    for bit.  A value that every row shares bit for bit stays a float, as in
    a lone solve, and any other value becomes an array with one entry per
    row.  ``evaluate`` needs an exponent as a float, so rows that differ in a
    parameter that appears in an exponent are solved as separate batches.
    """
    if not 1 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must be in 1..{MAX_ORDER}, got {max_order}")
    if not rows:
        return []
    spec = rows[0].spec
    if any(row.spec != spec for row in rows):
        raise ValueError("solve_batch rows must share one PotentialSpec")
    groups: dict = {}  # bit patterns of the exponent parameters -> row indices
    for i, row in enumerate(rows):
        groups.setdefault(tuple(float.hex(row.values[k]) for k in spec.exponent_params),
                          []).append(i)
    out: list = [None] * len(rows)
    for members in groups.values():
        for i, result in zip(members, _solve_rows([rows[i] for i in members], abs(m), max_order)):
            out[i] = result
    return out


def _solve_rows(rows: list[BoundPotential], l: int, max_order: int) -> list:
    """``solve_batch`` for rows that share every exponent parameter: the four stages in turn."""
    out = solve_geometry(rows, l)
    live = [i for i, g in enumerate(out) if isinstance(g, Geometry)]
    if live:
        v, failed = build_v_series([rows[i] for i in live], [out[i] for i in live], 2 * max_order)
        live = _drop_failed(out, live, failed)[0]
    if live:
        geoms = [out[i] for i in live]
        live, tables = _drop_failed(out, live, solve_hierarchy(v, geoms, max_order))
    if live:
        geoms = [out[i] for i in live]
        for i, geom, table, energy in zip(live, geoms, tables,
                                          assemble_energy(geoms, tables, max_order)):
            out[i] = energy if isinstance(energy, Exception) else (geom, table, energy)
    return out


def _drop_failed(out: list, live: list, results: list) -> tuple[list, list]:
    """Make each exception in ``results`` the outcome of its row in ``live``.

    Returns the rows left and their results.
    """
    kept = []
    for i, result in zip(live, results):
        if isinstance(result, Exception):
            out[i] = result
        else:
            kept.append((i, result))
    return [i for i, _ in kept], [r for _, r in kept]
