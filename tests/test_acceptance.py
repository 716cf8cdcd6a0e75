"""Acceptance gate.

Each criterion is one test function, so ``pytest -v`` emits exactly one
pass/fail line per criterion; a human-readable summary line is also printed
(visible with ``-s`` or on failure).

Criterion 4 is split: the three misprinted cells of the compactified 1S table
(documented in the embedded data's erratum column: one duplicates its row's
EN2 cell, one is inconsistent with its own row's EN1->EN2 chain, one
disagrees with the independent finite-difference oracle) are excluded from
the main regression and carried in a separate strict-xfail test so the
discrepancy stays visible instead of being hidden.
"""

import math
import random
import time

import numpy as np
import pytest
from scipy.integrate import simpson

from pslet2d import cli, tables
from pslet2d.expressions import bind_params, parse_potential
from pslet2d.engine import SolverError, solve
from pslet2d.jets import jet_lift
from pslet2d.oracle import coulomb_exact, fd_ground_energy, oscillator_exact
from pslet2d.wavefunction import synthesize_wavefunction


def _bound(text, params=None):
    return bind_params(parse_potential(text), params or {})


def overlap(grid, psi_a, psi_b) -> float:
    """Normalized Simpson overlap of two sampled reduced wavefunctions.

    Both samples are renormalized on the grid, so a function's overlap with
    itself is exactly 1 regardless of how much mass the grid captures.
    """
    num = float(simpson(psi_a * psi_b, x=grid))
    den = math.sqrt(float(simpson(psi_a * psi_a, x=grid)) * float(simpson(psi_b * psi_b, x=grid)))
    return num / den


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared random corpus (criteria 6 and 8)

def _random_corpus(n=20, seed=20240823):
    """Polynomial-plus-inverse-power potentials that admit a stable frame."""
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < n:
        p = rng.choice([1, 1, 1, 2])
        a = rng.uniform(0.5, 4.0)
        poly = {k: rng.uniform(0.0, 1.5) for k in rng.sample([1, 2, 3, 4], 2)}
        terms = [f"-a/rho^{p}" if p > 1 else "-a/rho"]
        params = {"a": a}
        for i, (k, c) in enumerate(sorted(poly.items())):
            name = "bcde"[i]
            terms.append(f"{name}*rho^{k}" if k > 1 else f"{name}*rho")
            params[name] = c
        bound = _bound(" + ".join(terms), params)
        m = rng.choice([-2, -1, 0, 1, 2])
        try:
            result = solve(bound, m)
        except SolverError:
            continue
        corpus.append((bound, m, result))
    return corpus


@pytest.fixture(scope="module")
def corpus():
    return _random_corpus()


# ---------------------------------------------------------------------------

def test_criterion_1_coulomb_exactness():
    bound = _bound("-2/rho")
    t0 = time.perf_counter()
    worst_e, worst_c = 0.0, 0.0
    for m in range(6):
        _, _, bd = solve(bound, m)
        worst_e = max(worst_e, abs(bd.partial_sums[3] - coulomb_exact(m)))
        worst_c = max(worst_c, max(abs(c) for c in bd.corrections))
    elapsed = time.perf_counter() - t0
    ok = worst_e <= 1e-12 and worst_c < 1e-10 and elapsed < 0.1
    _report(
        1,
        ok,
        f"Coulomb m=0..5: max |EN3-exact| = {worst_e:.2e} (<=1e-12), "
        f"max |correction| = {worst_c:.2e} (<1e-10), runtime {elapsed:.3f}s (<0.1s)",
    )


def test_criterion_2_oscillator_exactness():
    t0 = time.perf_counter()
    worst_e, worst_c = 0.0, 0.0
    for gamma in (0.5, 1.0, 2.0, 5.0):
        bound = _bound("g^2*rho^2/4", {"g": gamma})
        for m in (0, 1, 2):
            _, _, bd = solve(bound, m)
            worst_e = max(
                worst_e, abs(bd.partial_sums[3] - oscillator_exact(m, gamma))
            )
            worst_c = max(worst_c, max(abs(c) for c in bd.corrections))
    elapsed = time.perf_counter() - t0
    ok = worst_e <= 1e-12 and worst_c < 1e-10 and elapsed < 0.1
    _report(
        2,
        ok,
        f"oscillator 4 gammas x 3 m: max |EN3-exact| = {worst_e:.2e} (<=1e-12), "
        f"max |correction| = {worst_c:.2e} (<1e-10), runtime {elapsed:.3f}s (<0.1s)",
    )


def _table_deviation(preset_name, skip_errata):
    preset = tables.PRESETS[preset_name]
    results = tables.run_preset(preset)
    published = {c.x: c for c in tables.load_published_values(preset_name)}
    worst = 0.0
    for r in results:
        cell = published[r.x]
        for k in range(4):
            if skip_errata and cell.erratum == f"EN{k}":
                continue
            if not skip_errata and cell.erratum != f"EN{k}":
                continue
            worst = max(worst, abs(r.breakdown.partial_sums[k] - cell.sums[k]))
    return worst


def test_criterion_3_table1_regression():
    t0 = time.perf_counter()
    worst = _table_deviation("hybrid-1s-gamma", skip_errata=True)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 2.0
    _report(
        3,
        ok,
        f"1S table, 16 rows x 4 columns: max |dev| = {worst:.2e} (<=1e-5), "
        f"runtime {elapsed:.3f}s (<2s)",
    )


def test_criterion_4_tables_2_to_4_regression():
    t0 = time.perf_counter()
    worst = max(
        _table_deviation(name, skip_errata=True)
        for name in ("hybrid-1s-gprime", "hybrid-2p-minus", "hybrid-3d-minus")
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 2.0
    _report(
        4,
        ok,
        f"compactified tables, all cells except 3 documented misprints: "
        f"max |dev| = {worst:.2e} (<=1e-5), runtime {elapsed:.3f}s (<2s)",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "three published cells of the compactified 1S table are misprints "
        "(see the erratum tags in data/published_tables.csv); the literal "
        "every-printed-cell criterion is unattainable"
    ),
)
def test_criterion_4_strict_printed_misprints():
    worst = _table_deviation("hybrid-1s-gprime", skip_errata=False)
    assert worst <= 1e-5, f"misprinted cells deviate by up to {worst:.2e}"


def test_criterion_5_oracle_cross_validation():
    t0 = time.perf_counter()
    worst = 0.0
    for gamma in (0.5, 1.0, 2.0):
        for m in (0, -1):
            bound = _bound(
                "m*g - 2/rho + g^2*rho^2/4", {"m": float(m), "g": gamma}
            )
            geom, _, bd = solve(bound, m)
            fd, fd_err = fd_ground_energy(bound, geom.l, max(20.0, 8.0 * geom.rho0),
                                          cli.ORACLE_CELLS)
            worst = max(worst, abs(bd.partial_sums[3] - fd) + fd_err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 5e-3 and elapsed < 30.0
    _report(
        5,
        ok,
        f"hybrid vs finite differences, 3 gammas x 2 m: max |EN3 - fd| + fd_err = "
        f"{worst:.2e} (<=5e-3), runtime {elapsed:.1f}s (<30s)",
    )


def test_criterion_6_hierarchy_self_consistency(corpus):
    worst_res, worst_e1 = 0.0, 0.0
    for _, _, (geom, table, bd) in corpus:
        worst_res = max(worst_res, max(table.residuals))
        worst_e1 = max(worst_e1, abs(bd.e_minus1))
    ok = worst_res <= 1e-9 and worst_e1 <= 1e-10
    _report(
        6,
        ok,
        f"20 random potentials: max order residual = {worst_res:.2e} (<=1e-9), "
        f"max |E(-1)| = {worst_e1:.2e} (<=1e-10)",
    )


def test_criterion_7_wavefunction_fidelity():
    # Coulomb against the exact nodeless form
    geom, table, _ = solve(_bound("-2/rho"), 0)
    grid = np.linspace(0.01, 5.0, 500)
    wf = synthesize_wavefunction(geom, table, grid)
    exact = 4.0 * np.sqrt(grid) * np.exp(-2.0 * grid)
    rms = math.sqrt(float(np.mean((wf.psi - exact) ** 2)))
    ov_c = overlap(grid, wf.psi, exact)

    # oscillator against rho^(1/2) exp(-rho^2/4)
    geom_o, table_o, _ = solve(_bound("g^2*rho^2/4", {"g": 1.0}), 0)
    grid_o = np.linspace(0.01, 8.0, 1000)
    wf_o = synthesize_wavefunction(geom_o, table_o, grid_o)
    exact_o = np.sqrt(grid_o) * np.exp(-(grid_o**2) / 4.0)
    ov_o = overlap(grid_o, wf_o.psi, exact_o)

    # frozen regression floors (first-run values were 1 - O(1e-12))
    ok = rms <= 1e-4 and ov_c >= 0.999999 and ov_o >= 0.9999 and ov_o >= 1 - 1e-9
    _report(
        7,
        ok,
        f"Coulomb RMS = {rms:.2e} (<=1e-4), overlap = {ov_c:.9f} (>=0.999999); "
        f"oscillator overlap = {ov_o:.9f} (>=0.9999, frozen floor 1-1e-9)",
    )


def test_criterion_8_geometry_invariants(corpus):
    worst_frame, worst_beta = 0.0, 0.0
    curvature_ok = True
    for bound, m, (geom, _, _) in corpus:
        a = jet_lift(bound, geom.rho0, 2)
        v1, v2 = a[1], 2.0 * a[2]
        frame = abs(geom.lbar - math.sqrt(geom.rho0**3 * v1 / 2.0)) / geom.lbar
        worst_frame = max(worst_frame, frame)
        worst_beta = max(worst_beta, abs(geom.beta + geom.w / 4.0))
        curvature_ok &= 6.0 / geom.rho0**4 + v2 / geom.Q > 0.0
    ok = worst_frame <= 1e-10 and worst_beta <= 1e-12 and curvature_ok
    _report(
        8,
        ok,
        f"20 random frames: max frame residual = {worst_frame:.2e} "
        f"(<=1e-10 rel), max |beta + w/4| = {worst_beta:.2e}, "
        f"second-derivative test {'passed' if curvature_ok else 'FAILED'}",
    )
