import math
import random

import numpy as np
import pytest

from pslet2d.expressions import bind_params, parse_potential
from pslet2d.engine import (
    RESIDUAL_TOL,
    CoefficientTable,
    HierarchyInconsistencyError,
    NoStableFrameError,
    build_v_series,
    solve,
    solve_geometry,
    solve_hierarchy,
)
from pslet2d.jets import jet_lift
from pslet2d.tables import PRESETS


def _bound(text, params=None):
    return bind_params(parse_potential(text), params or {})


def _coulomb():
    return _bound("-2/rho")


def _oscillator(gamma):
    return _bound("g^2*rho^2/4", {"g": gamma})


def _hybrid(gamma, m):
    return _bound("m*g - 2/rho + g^2*rho^2/4", {"m": float(m), "g": gamma})


# ---------------------------------------------------------------------------
# geometry

def test_coulomb_geometry():
    geom = solve_geometry(_coulomb(), 0)
    assert geom.lbar == pytest.approx(0.5, abs=1e-13)
    assert geom.rho0 == pytest.approx(0.25, abs=1e-13)
    assert geom.w == pytest.approx(2.0, abs=1e-13)
    assert geom.beta == pytest.approx(-0.5, abs=1e-13)
    assert geom.Q == pytest.approx(0.25, abs=1e-13)


def test_coulomb_geometry_all_m():
    # lbar = |m| + 1/2, rho0 = lbar^2
    for m in range(6):
        geom = solve_geometry(_coulomb(), m)
        lbar = abs(m) + 0.5
        assert geom.lbar == pytest.approx(lbar, rel=1e-12)
        assert geom.rho0 == pytest.approx(lbar**2, rel=1e-12)
        assert geom.w == pytest.approx(2.0, rel=1e-12)


def test_oscillator_geometry():
    geom = solve_geometry(_oscillator(2.0), 1)
    assert geom.lbar == pytest.approx(2.0, rel=1e-12)
    assert geom.rho0 == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert geom.w == pytest.approx(4.0, rel=1e-12)
    assert geom.beta == pytest.approx(-1.0, rel=1e-12)


def test_hybrid_geometry_matches_independent_bisection():
    # independent oracle: bisect F(rho) = sqrt(rho^3 V'/2) - l - w(rho)/4
    gamma, m = 1.0, 0
    bound = _hybrid(gamma, m)

    def frame(rho):
        v1 = 2.0 / rho**2 + gamma**2 * rho / 2.0
        v2 = -4.0 / rho**3 + gamma**2 / 2.0
        w = 2.0 * math.sqrt(3.0 + rho * v2 / v1)
        return math.sqrt(rho**3 * v1 / 2.0) - abs(m) - w / 4.0

    lo, hi = 0.05, 5.0
    assert frame(lo) < 0 < frame(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if frame(mid) < 0:
            lo = mid
        else:
            hi = mid
    geom = solve_geometry(bound, m)
    assert geom.rho0 == pytest.approx(0.5 * (lo + hi), rel=1e-10)


def test_frame_invariants_on_solved_geometry():
    for bound, m in [(_coulomb(), 0), (_oscillator(1.5), 2), (_hybrid(0.7, -1), -1)]:
        geom = solve_geometry(bound, m)
        a = jet_lift(bound, geom.rho0, 2)
        v1, v2 = math.factorial(1) * a[1], math.factorial(2) * a[2]
        # frame residual, beta relation, frequency relation, curvature
        assert abs(geom.lbar - math.sqrt(geom.rho0**3 * v1 / 2.0)) <= 1e-10 * geom.lbar
        assert geom.beta == pytest.approx(-geom.w / 4.0, rel=1e-12)
        assert geom.w == pytest.approx(2.0 * math.sqrt(3.0 + geom.rho0 * v2 / v1), rel=1e-12)
        assert 6.0 / geom.rho0**4 + v2 / geom.Q > 0.0


def test_no_stable_frame_for_repulsive_decreasing_potential():
    with pytest.raises(NoStableFrameError):
        solve_geometry(_bound("-rho"), 0)


def _bisect_frame_root(bound, l, lo, hi, steps=48):
    """Reference rho0: bisection of F(rho) = sqrt(rho^3 V'/2) - l - w/4 in
    30-digit arithmetic, with V' and V'' from mpmath's numerical
    differentiation of the expression (no jets, no engine code)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):

        def frame(rho):
            v1, v2 = mp.diff(bound, rho, 1), mp.diff(bound, rho, 2)
            return mp.sqrt(rho**3 * v1 / 2) - l - mp.sqrt(3 + rho * v2 / v1) / 2

        lo, hi = mp.mpf(lo), mp.mpf(hi)
        lo_negative = frame(lo) < 0
        assert lo_negative != (frame(hi) < 0), "reference bracket holds no root"
        for _ in range(steps):
            mid = (lo + hi) / 2
            if (frame(mid) < 0) == lo_negative:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def _frame_cases():
    from test_acceptance import _random_corpus

    from pslet2d import tables

    spec = parse_potential(tables.HYBRID_EXPRESSION)
    for preset in tables.PRESETS.values():
        for x in preset.rows:
            values = {"m": float(preset.m), "g": preset.gamma(x)}
            yield bind_params(spec, values), preset.m
    for bound, m, _ in _random_corpus():
        yield bound, m


def test_rho0_matches_bisection_on_presets_and_corpus():
    cases = list(_frame_cases())
    assert len(cases) == 43 + 20
    for bound, m in cases:
        geom = solve_geometry(bound, m)
        lo, hi = 0.9999 * geom.rho0, 1.0001 * geom.rho0
        ref = _bisect_frame_root(bound, abs(m), lo, hi)
        assert geom.rho0 == pytest.approx(ref, rel=1e-13), (str(bound), m)


def test_two_stable_frames_lowest_leading_energy_wins():
    # V' > 0 on two disjoint intervals, each holding one stable frame
    bound = _bound("rho^4-6*rho^2-2/rho")

    def leading_energy(rho0):
        v1 = 4.0 * rho0**3 - 12.0 * rho0 + 2.0 / rho0**2
        v2 = 12.0 * rho0**2 - 12.0 - 4.0 / rho0**3
        lbar = math.sqrt(3.0 + rho0 * v2 / v1) / 2.0  # l = 0, lbar = w/4
        return lbar**2 / rho0**2 + float(bound(rho0))

    inner = _bisect_frame_root(bound, 0, 0.15, 0.3)
    outer = _bisect_frame_root(bound, 0, 1.75, 2.0)
    assert leading_energy(outer) < leading_energy(inner)
    with pytest.warns(UserWarning, match="2 stable frames"):
        geom = solve_geometry(bound, 0)
    assert geom.rho0 == pytest.approx(outer, rel=1e-13)


@pytest.mark.parametrize("text", ["rho^rho", "1/(0)*rho", "0^(-1)*rho"])
def test_structural_evaluation_error_has_no_stable_frame(text):
    with pytest.raises(NoStableFrameError, match="no root"):
        solve_geometry(_bound(text), 0)


@pytest.mark.parametrize(
    "text",
    [
        "-2/rho + 0*(5-rho)^0.5",  # undefined for rho > 5
        "-2/rho + 1e-300*rho^200",  # overflows at large rho
    ],
)
def test_points_where_the_frame_is_undefined_leave_the_rest_of_the_scan(text):
    _, _, breakdown = solve(_bound(text), 0)
    assert breakdown.partial_sums[3] == pytest.approx(-4.0, abs=1e-12)


# ---------------------------------------------------------------------------
# v-series

def test_coulomb_v_series():
    geom = solve_geometry(_coulomb(), 0)
    v = build_v_series(_coulomb(), geom, 2)
    assert v[0] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-13)  # x^2 - 1
    assert v[1] == pytest.approx([0.0, 2.0, 0.0, -2.0], abs=1e-13)  # 2x - 2x^3
    assert v[1][3] == pytest.approx(-2.0, abs=1e-13)
    assert v[2][4] == pytest.approx(3.0, abs=1e-13)


def test_oscillator_v1_cubic_only():
    # the third-derivative contribution vanishes for a quadratic potential
    for gamma, m in [(1.0, 0), (2.0, 1), (5.0, 2)]:
        bound = _oscillator(gamma)
        geom = solve_geometry(bound, m)
        v = build_v_series(bound, geom, 2)
        expected = np.zeros(4)
        expected[1] = -4.0 * geom.beta
        expected[3] = -4.0
        assert v[1] == pytest.approx(expected, abs=1e-12)
        assert v[1][3] == pytest.approx(-4.0, abs=1e-12)
        assert v[2][4] == pytest.approx(5.0, abs=1e-12)


def test_v_series_degrees():
    geom = solve_geometry(_hybrid(1.0, 0), 0)
    v = build_v_series(_hybrid(1.0, 0), geom, 6)
    for n in range(len(v)):
        assert len(v[n]) <= n + 3  # degree <= n + 2


# ---------------------------------------------------------------------------
# hierarchy

def test_u0_is_minus_half_w_x():
    for bound, m in [(_coulomb(), 0), (_oscillator(3.0), 1)]:
        geom, table, _ = solve(bound, m)
        assert table.W[0] == pytest.approx([0.0, -geom.w / 2.0], abs=1e-14)


def test_coulomb_low_order_coefficients():
    _, table, _ = solve(_coulomb(), 0)
    assert table.W[1][2] == pytest.approx(1.0, abs=1e-12)
    assert table.W[1][0] == pytest.approx(0.0, abs=1e-12)
    assert table.W[2][3] == pytest.approx(-1.0, abs=1e-12)
    assert table.W[2][1] == pytest.approx(0.0, abs=1e-12)
    assert table.lambdas[0] == pytest.approx(0.0, abs=1e-12)
    # the odd part of W_1 and the even part of W_2 vanish at these orders
    assert np.max(np.abs(table.W[1][1::2])) < 1e-12
    assert np.max(np.abs(table.W[2][0::2])) < 1e-12


def test_oscillator_low_order_coefficients():
    _, table, _ = solve(_oscillator(2.0), 1)
    assert table.W[1][2] == pytest.approx(1.0, abs=1e-12)
    assert table.W[1][0] == pytest.approx(-0.5, abs=1e-12)
    assert table.W[2][3] == pytest.approx(-1.0, abs=1e-12)
    assert table.W[2][1] == pytest.approx(0.5, abs=1e-12)
    assert table.lambdas[0] == pytest.approx(-0.75, abs=1e-12)


def test_lambda0_identity():
    # lambda^(0) = -(D_{1,2} + C_{0,0}^2): the x coefficient of W_2 and the
    # constant term of W_1
    for bound, m in [(_coulomb(), 0), (_oscillator(1.0), 0), (_hybrid(2.0, -1), -1)]:
        _, table, _ = solve(bound, m)
        assert table.lambdas[0] == pytest.approx(
            -(table.W[2][1] + table.W[1][0] ** 2), rel=1e-10, abs=1e-12
        )


def test_residuals_random_corpus():
    rng = random.Random(42)
    for _ in range(10):
        a = rng.uniform(0.5, 4.0)
        b = rng.uniform(0.0, 1.5)
        c = rng.uniform(0.0, 1.5)
        bound = _bound("-a/rho + b*rho^2 + c*rho", {"a": a, "b": b, "c": c})
        m = rng.choice([0, 1, -1, 2])
        _, table, _ = solve(bound, m)
        assert max(table.residuals) <= 1e-9


def test_degree_bounds():
    _, table, _ = solve(_hybrid(1.0, 0), 0)
    for n, w_n in enumerate(table.W):
        assert len(w_n) - 1 <= 2 * n + 1


def test_insufficient_v_series_rejected():
    bound = _coulomb()
    geom = solve_geometry(bound, 0)
    v = build_v_series(bound, geom, 3)
    with pytest.raises(ValueError):
        solve_hierarchy(v, geom, max_order=3)  # needs orders 0..6


@pytest.mark.parametrize("value", [1e308, math.inf, math.nan])
def test_non_finite_residual_is_an_error(value):
    # a v-series entry that overflows the order-3 balance leaves NaN in its residual
    bound = _coulomb()
    geom = solve_geometry(bound, 1)
    v = [p.copy() for p in build_v_series(bound, geom, 6)]
    v[3][5] = value
    with pytest.raises(HierarchyInconsistencyError, match="at order 3: residual nan"):
        solve_hierarchy(tuple(v), geom, max_order=3)


def _reference_hierarchy(v, geom, max_order, tol=RESIDUAL_TOL):
    """Reference hierarchy: every ordered pair convolved and subtracted from
    K_s in place, and the residual through L[W_s] in numpy."""
    w, beta = geom.w, geom.beta
    W = [np.array([0.0, -w / 2.0])]
    lambdas, residuals = [], []
    for s in range(1, 2 * max_order + 1):
        K = v[s].copy()
        for p in range(1, s):
            cross = np.convolve(W[p], W[s - p])
            K[: len(cross)] -= cross
        k_s = K.tolist()
        c = [0.0] * (len(k_s) + 1)
        for k in range(len(k_s) - 1, 0, -1):
            c[k - 1] = ((k + 1) * c[k + 1] - k_s[k]) / w
        top = len(c)
        while top and c[top - 1] == 0.0:
            top -= 1
        W.append(np.array(c[:top]) if top else np.zeros(1))
        rhs_const = 0.0
        if s % 2 == 0:
            rhs_const = k_s[0] - c[1]
            lambdas.append(rhs_const - (beta * beta - 0.25) if s == 2 else rhs_const)
        res = K.copy()
        res[0] -= rhs_const
        lw = np.zeros(len(W[s]) + 1)
        lw[: len(W[s]) - 1] += np.arange(1, len(W[s])) * W[s][1:]
        lw[1:] -= w * W[s]
        res[: len(lw)] -= lw
        res_max = float(np.max(np.abs(res)))
        residuals.append(res_max)
        if res_max > tol:
            raise HierarchyInconsistencyError(
                f"hierarchy inconsistency at order {s}: residual {res_max:.3e}"
            )
    return CoefficientTable(tuple(W), tuple(lambdas), tuple(residuals))


def _bits(run, *args):
    """Every output bit of a hierarchy run, or its error and message."""
    try:
        table = run(*args)
    except HierarchyInconsistencyError as exc:
        return "error", str(exc)
    return ([(len(p), p.tobytes()) for p in table.W],
            np.array(table.lambdas).tobytes(), np.array(table.residuals).tobytes())


def _same_as_reference(bound, m, order):
    geom = solve_geometry(bound, m)
    v = build_v_series(bound, geom, 2 * order)
    got = _bits(solve_hierarchy, v, geom, order)
    assert got == _bits(_reference_hierarchy, v, geom, order), (bound.values, m, order)
    return got[0] == "error"


@pytest.mark.parametrize("order", [3, 6])
def test_hierarchy_equals_reference_on_preset_rows(order):
    for preset in PRESETS.values():
        for x in preset.rows:
            _same_as_reference(_hybrid(preset.gamma(x), preset.m), preset.m, order)


@pytest.mark.parametrize("order", [6, 10, 15, 20])
def test_hierarchy_equals_reference_at_high_order(order):
    # the potentials of the high_order benchmark; at K = 20 some end in an error
    errors = 0
    for m in range(-3, 4):
        errors += _same_as_reference(_coulomb(), m, order)
        for gamma in (0.5, 1.37, 2.5):
            errors += _same_as_reference(_oscillator(gamma), m, order)
            errors += _same_as_reference(_hybrid(gamma, m), m, order)
    assert errors == (7 if order == 20 else 0)


@pytest.mark.parametrize("order", [3, 6, 10, 15])
def test_hierarchy_equals_reference_on_exact_potentials(order):
    # Coulomb's and the oscillator's W_s lose their vanishing top coefficients
    for m in range(6):
        _same_as_reference(_coulomb(), m, order)
        _same_as_reference(_oscillator(1.5), m, order)


def test_equal_lengths_convolve_both_orders(monkeypatch):
    # A hand-built series whose W_3 has the length of W_1; W_1 W_3 and W_3 W_1
    # then round differently, so order 4 must make both products.
    rng = np.random.default_rng(0)
    geom = solve_geometry(_coulomb(), 0)
    v = [rng.standard_normal(n + 3) for n in range(5)]
    W = _reference_hierarchy(v, geom, 1, tol=math.inf).W
    v[1][0] = W[1][1]  # the x^0 balance of order 1
    cross = np.convolve(W[1], W[2])
    v[3][4:] = 2.0 * cross[4:]  # K_3 loses its x^4 and x^5 terms, W_3 its top two
    v[3][0] = 2.0 * cross[0] + _reference_hierarchy(v, geom, 2, tol=math.inf).W[3][1]
    W = _reference_hierarchy(v, geom, 2).W
    assert len(W[1]) == len(W[3]) == 3
    assert np.convolve(W[1], W[3]).tobytes() != np.convolve(W[3], W[1]).tobytes()

    calls = []
    convolve = np.convolve
    monkeypatch.setattr(np, "convolve", lambda a, b: calls.append(1) or convolve(a, b))
    got = _bits(solve_hierarchy, tuple(v), geom, 2)
    assert len(calls) == 5  # 4 unordered pairs through order 4, one of them made twice
    monkeypatch.undo()
    assert got == _bits(_reference_hierarchy, v, geom, 2)


@pytest.mark.parametrize("bound, m", [(_hybrid(1.0, 0), 0), (_coulomb(), 1)])
def test_one_convolution_per_unordered_pair(monkeypatch, bound, m):
    geom = solve_geometry(bound, m)
    calls = []
    convolve = np.convolve
    monkeypatch.setattr(np, "convolve", lambda a, b: calls.append(1) or convolve(a, b))
    for order, expected in ((3, 9), (6, 36), (10, 100), (15, 225)):
        calls.clear()
        solve_hierarchy(build_v_series(bound, geom, 2 * order), geom, order)
        assert len(calls) == expected, order  # every ordered pair: 15, 66, 190, 435


# ---------------------------------------------------------------------------
# energies

def test_coulomb_exact_all_m():
    for m in range(6):
        _, _, breakdown = solve(_coulomb(), m)
        exact = -((abs(m) + 0.5) ** -2)
        assert breakdown.partial_sums[3] == pytest.approx(exact, abs=1e-12)
        assert all(abs(c) < 1e-10 for c in breakdown.corrections)
        assert abs(breakdown.e_minus1) < 1e-10


def test_oscillator_exact_grid():
    for gamma in (0.5, 1.0, 2.0, 5.0):
        for m in (0, 1, 2):
            _, _, breakdown = solve(_oscillator(gamma), m)
            assert breakdown.partial_sums[3] == pytest.approx(
                gamma * (abs(m) + 1), abs=1e-12
            )
            assert all(abs(c) < 1e-10 for c in breakdown.corrections)


# Rounding amplified by the hierarchy's back-substitution breaks Coulomb's
# exactness from K = 9 on for m = 1 and m = 2 (ROADMAP item 3); the other m
# and the oscillator hold at every order.  At K = 15, |EN15 - exact| reads
# 6.4e-4 (m = 1) and 2.0e-7 (m = 2) against at most 6.9e-14 for m = 0, 3, 4, 5,
# and those four hold only while the last bit of rho0 stays where Brent puts it.
ORDERS = (3, 6, 9, 12, 15)
ROUNDING_DEFECT = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 3: rounding grows in the hierarchy with K"
)


def _assert_coulomb_exact(ms, order):
    for m in ms:
        _, _, breakdown = solve(_coulomb(), m, max_order=order)
        exact = -((abs(m) + 0.5) ** -2)
        assert breakdown.partial_sums[order] == pytest.approx(exact, abs=1e-12), m


@pytest.mark.parametrize("order", ORDERS)
def test_coulomb_exact_at_every_order(order):
    _assert_coulomb_exact((0, 3, 4, 5), order)


@pytest.mark.parametrize(
    "order", [K if K <= 6 else pytest.param(K, marks=ROUNDING_DEFECT) for K in ORDERS]
)
def test_coulomb_exact_at_every_order_m1_m2(order):
    _assert_coulomb_exact((1, 2), order)


@pytest.mark.parametrize("order", ORDERS)
def test_oscillator_exact_at_every_order(order):
    for gamma in (0.5, 1.0, 2.0, 5.0):
        for m in range(6):
            _, _, breakdown = solve(_oscillator(gamma), m, max_order=order)
            assert breakdown.partial_sums[order] == pytest.approx(
                gamma * (abs(m) + 1), abs=1e-12
            ), (gamma, m)


def test_hybrid_gamma2_partial_sums():
    _, _, breakdown = solve(_hybrid(2.0, 0), 0)
    expected = (-3.738814, -3.651631, -3.677083, -3.673240)
    for got, ref in zip(breakdown.partial_sums, expected):
        assert got == pytest.approx(ref, abs=1e-5)


def test_partial_sum_chain():
    geom, _, breakdown = solve(_hybrid(1.0, -1), -1)
    sums = breakdown.partial_sums
    assert sums[0] == pytest.approx(geom.lbar**2 * breakdown.e_minus2, rel=1e-14)
    assert sums[1] == pytest.approx(sums[0] + breakdown.corrections[0], rel=1e-14)
    for k in (2, 3):
        assert sums[k] == pytest.approx(
            sums[k - 1] + breakdown.corrections[k - 1] / geom.lbar ** (k - 1),
            rel=1e-14,
        )


def test_e_minus1_vanishes_random_corpus():
    rng = random.Random(7)
    for _ in range(8):
        bound = _bound(
            "-a/rho + b*rho^2", {"a": rng.uniform(0.5, 3), "b": rng.uniform(0.1, 2)}
        )
        _, _, breakdown = solve(bound, rng.choice([0, -1, 2]))
        assert abs(breakdown.e_minus1) <= 1e-10
