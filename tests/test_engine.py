import math
import random
import statistics

import numpy as np
import pytest

from pslet2d import cli
from pslet2d.expressions import PotentialEvalError, bind_params, parse_potential
from pslet2d.engine import (
    RESIDUAL_TOL,
    RHO_HI,
    RHO_LO,
    CoefficientTable,
    Geometry,
    HierarchyInconsistencyError,
    NoStableFrameError,
    build_v_series,
    solve,
    solve_batch,
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


def _one(results):
    """The result of a one-row batch stage, its error raised."""
    (result,) = results
    if isinstance(result, Exception):
        raise result
    return result


def _geometry(bound, m):
    return _one(solve_geometry([bound], m))


def _v_series(bound, geom, max_order):
    """v^(0)..v^(max_order) of one row, as vectors in x."""
    v, failed = build_v_series([bound], [geom], max_order)
    _one(failed)
    return tuple(p[0] for p in v)


def _hierarchy(v, geom, max_order):
    return _one(solve_hierarchy([np.asarray(p)[None] for p in v], [geom], max_order))


# ---------------------------------------------------------------------------
# geometry

def test_coulomb_geometry():
    geom = _geometry(_coulomb(), 0)
    assert geom.lbar == pytest.approx(0.5, abs=1e-13)
    assert geom.rho0 == pytest.approx(0.25, abs=1e-13)
    assert geom.w == pytest.approx(2.0, abs=1e-13)
    assert geom.beta == pytest.approx(-0.5, abs=1e-13)
    assert geom.Q == pytest.approx(0.25, abs=1e-13)


def test_coulomb_geometry_all_m():
    # lbar = |m| + 1/2, rho0 = lbar^2
    for m in range(6):
        geom = _geometry(_coulomb(), m)
        lbar = abs(m) + 0.5
        assert geom.lbar == pytest.approx(lbar, rel=1e-12)
        assert geom.rho0 == pytest.approx(lbar**2, rel=1e-12)
        assert geom.w == pytest.approx(2.0, rel=1e-12)


def test_oscillator_geometry():
    geom = _geometry(_oscillator(2.0), 1)
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
    geom = _geometry(bound, m)
    assert geom.rho0 == pytest.approx(0.5 * (lo + hi), rel=1e-10)


def test_frame_invariants_on_solved_geometry():
    for bound, m in [(_coulomb(), 0), (_oscillator(1.5), 2), (_hybrid(0.7, -1), -1)]:
        geom = _geometry(bound, m)
        a = jet_lift(bound, geom.rho0, 2)
        v1, v2 = math.factorial(1) * a[1], math.factorial(2) * a[2]
        # frame residual, beta relation, frequency relation, curvature
        assert abs(geom.lbar - math.sqrt(geom.rho0**3 * v1 / 2.0)) <= 1e-10 * geom.lbar
        assert geom.beta == pytest.approx(-geom.w / 4.0, rel=1e-12)
        assert geom.w == pytest.approx(2.0 * math.sqrt(3.0 + geom.rho0 * v2 / v1), rel=1e-12)
        assert 6.0 / geom.rho0**4 + v2 / geom.Q > 0.0


def test_no_stable_frame_for_repulsive_decreasing_potential():
    with pytest.raises(NoStableFrameError):
        _geometry(_bound("-rho"), 0)


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
        geom = _geometry(bound, m)
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
        geom = _geometry(bound, 0)
    assert geom.rho0 == pytest.approx(outer, rel=1e-13)


def test_the_two_frames_warning_names_the_caller():
    # from every entry point, the warning points at the first frame outside
    # pslet2d: here, this file
    text = "rho^4-6*rho^2-2/rho"
    for call in (lambda: solve(_bound(text), 0),
                 lambda: solve_batch([_bound(text), _bound(text)], 0),
                 lambda: cli.main(["compute", "-V", text, "-m", "0"])):
        with pytest.warns(UserWarning, match="2 stable frames") as record:
            call()
        assert [w.filename for w in record] == [__file__] * len(record)


def test_scaled_potential_scales_the_energies():
    # -nabla^2 + s^2 V(s rho) has s^2 times the spectrum of -nabla^2 + V, and
    # the frame maps rho0 -> rho0 / s with w, beta and lbar unchanged, so every
    # partial sum scales by s^2, exactly in floats for s = 2^k.  Pairs whose
    # rho0 / s leaves the scan window are skipped (ROADMAP item 11).  At K = 6
    # the hierarchy's rounding alone moves the sums by up to 1.5e-6, so K = 3.
    spec = parse_potential("a*rho^q - c/rho^p + b*rho^2")
    rng = random.Random(11)
    checked = 0
    for draw in range(80):
        m = draw % 4
        a, q, c, p, b = (rng.uniform(0.1, 2), rng.uniform(0.5, 3), rng.uniform(0.5, 3),
                         rng.uniform(0.5, 1.5), rng.uniform(0.05, 1))
        sigmas = [2.0 ** k for k in range(-10, 11)]
        rows = [bind_params(spec, {"a": a * s ** (2 + q), "q": q, "c": c * s ** (2 - p), "p": p,
                                   "b": b * s ** 4}) for s in [1.0] + sigmas]
        (geom, _, energy), *scaled = solve_batch(rows, m, 3)
        for s, result in zip(sigmas, scaled):
            if not RHO_LO <= geom.rho0 / s <= RHO_HI:
                continue
            sums = np.array(result[2].partial_sums)
            expected = s * s * np.array(energy.partial_sums)
            assert np.max(np.abs(sums - expected)) <= 1e-10 * np.max(np.abs(expected)), (draw, s)
            checked += 1
    assert checked > 1500


@pytest.mark.xfail(strict=True, raises=NoStableFrameError,
                   reason="ROADMAP item 11: the frame scan covers only [RHO_LO, RHO_HI]")
@pytest.mark.parametrize("c", [2e-5, 2e4])
def test_coulomb_solves_beyond_the_scan_window(c):
    # rho0 = 1 / (2c): 2.5e4 and 2.5e-5, outside [1e-4, 1e4]
    _, _, breakdown = solve(_bound("-c/rho", {"c": c}), 0, max_order=6)
    assert breakdown.partial_sums[6] == pytest.approx(-c * c, rel=1e-12)


@pytest.mark.parametrize("text", ["rho^rho", "1/(0)*rho", "0^(-1)*rho"])
def test_structural_evaluation_error_has_no_stable_frame(text):
    # V is undefined everywhere: the frame is the walk's error, not a missing root
    cause = {"rho^rho": "exponent must not depend on rho",
             "1/(0)*rho": "division by zero (pole)",
             "0^(-1)*rho": "zero raised to a negative power (pole)"}[text]
    with pytest.raises(PotentialEvalError) as caught:
        _geometry(_bound(text), 0)
    assert str(caught.value) == cause


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
    geom = _geometry(_coulomb(), 0)
    v = _v_series(_coulomb(), geom, 2)
    assert v[0] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-13)  # x^2 - 1
    assert v[1] == pytest.approx([0.0, 2.0, 0.0, -2.0], abs=1e-13)  # 2x - 2x^3
    assert v[1][3] == pytest.approx(-2.0, abs=1e-13)
    assert v[2][4] == pytest.approx(3.0, abs=1e-13)


def test_oscillator_v1_cubic_only():
    # the third-derivative contribution vanishes for a quadratic potential
    for gamma, m in [(1.0, 0), (2.0, 1), (5.0, 2)]:
        bound = _oscillator(gamma)
        geom = _geometry(bound, m)
        v = _v_series(bound, geom, 2)
        expected = np.zeros(4)
        expected[1] = -4.0 * geom.beta
        expected[3] = -4.0
        assert v[1] == pytest.approx(expected, abs=1e-12)
        assert v[1][3] == pytest.approx(-4.0, abs=1e-12)
        assert v[2][4] == pytest.approx(5.0, abs=1e-12)


def test_v_series_degrees():
    geom = _geometry(_hybrid(1.0, 0), 0)
    v = _v_series(_hybrid(1.0, 0), geom, 6)
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


def _wrong_parity_coefficients(table):
    """Every W_s[j] with j = s (mod 2), as ``float.hex``."""
    return [c.hex() for s, w in enumerate(table.W) for c in w.tolist()[s % 2::2]]


def _assert_wrong_parity_is_plus_zero(results):
    # v^(n) holds only terms of n's parity and W_0 = -(w/2) x, so by induction
    # over the order-s balance W_s has parity (-1)^(s+1); the dead entries of
    # K_s start at +0.0, and +0.0 - (+-0.0) is +0.0, so they never turn -0.0
    dead = [c for result in results for c in _wrong_parity_coefficients(result[1])]
    assert dead and set(dead) == {"0x0.0p+0"}


def test_wrong_parity_coefficients_are_plus_zero_on_the_golden_requests():
    from test_golden import _requests

    _assert_wrong_parity_is_plus_zero(
        result for _, result in _requests() if not isinstance(result, Exception))


@pytest.mark.parametrize("order", [3, 6, 10, 15])
def test_wrong_parity_coefficients_are_plus_zero_on_a_seeded_batch(order):
    rng = random.Random(order)
    spec = parse_potential("-a/rho^p + b*rho^2 + c*rho^1.5 + d*rho")
    results, dead_v = [], []
    for m in (-2, -1, 0, 1, 3):
        p = rng.choice([0.5, 1.0, 1.5])  # an exponent: one value per batch
        rows = [bind_params(spec, {"a": rng.uniform(0.5, 3.0), "p": p, "b": rng.uniform(0.1, 2.0),
                                   "c": rng.uniform(0.0, 1.0), "d": rng.uniform(-0.5, 0.5)})
                for _ in range(8)]
        batch = solve_batch(rows, m, order)
        assert not any(isinstance(result, Exception) for result in batch)
        results += batch
        # solve_hierarchy runs only W_s's live chain, relying on v^(n) having n's parity
        v, failed = build_v_series(rows, [geom for geom, _, _ in batch], 2 * order)
        assert failed == [None] * len(rows)
        dead_v += [c.hex() for n, v_n in enumerate(v) for c in v_n[:, (n + 1) % 2::2].flat]
    _assert_wrong_parity_is_plus_zero(results)
    assert dead_v and set(dead_v) == {"0x0.0p+0"}


@pytest.mark.parametrize("value", [1e308, math.inf, math.nan])
def test_non_finite_residual_is_an_error(value):
    # a v-series entry that overflows the order-3 balance leaves NaN in its residual
    bound = _coulomb()
    geom = _geometry(bound, 1)
    v = [p.copy() for p in _v_series(bound, geom, 6)]
    v[3][5] = value
    with pytest.raises(HierarchyInconsistencyError, match="at order 3: residual nan"):
        _hierarchy(v, geom, max_order=3)


def _reference_hierarchy(v, geom, max_order):
    """Reference hierarchy in Python floats, one coefficient at a time.

    Each unordered pair W_p W_q, p <= q, is formed once, every coefficient
    summed term by term in W_p's index order; K_s subtracts the products from
    v^(s) in the order p = 1, 2, ...; the residual is taken in Python floats
    too.  Every sum, v^(s)'s included, starts from +0.0, as np.add.reduce's
    do, so a sum of -0.0's and a -0.0 entry of v^(s) give +0.0.  An order
    whose residual is above RESIDUAL_TOL or not finite raises.
    """
    w, beta = geom.w, geom.beta
    W = [[0.0, -w / 2.0]]
    lambdas, residuals = [], []
    for s in range(1, 2 * max_order + 1):
        products = {}
        for p in range(1, s // 2 + 1):
            a, b = W[p], W[s - p]
            products[p] = []
            for j in range(s + 3):
                terms = [a[i] * b[j - i] for i in range(len(a)) if 0 <= j - i < len(b)]
                total = 0.0
                for term in terms:
                    total += term
                products[p].append(total)
        k_s = [0.0 + float(x) for x in v[s]]
        for p in range(1, s):
            k_s = [k - x for k, x in zip(k_s, products[min(p, s - p)])]
        c = [0.0] * (s + 4)
        for j in range(s + 2, 0, -1):
            c[j - 1] = ((j + 1) * c[j + 1] - k_s[j]) / w
        P = c[: s + 2]
        W.append(P)
        rhs_const = 0.0
        if s % 2 == 0:
            rhs_const = k_s[0] - c[1]
            lambdas.append(rhs_const - (beta * beta - 0.25) if s == 2 else rhs_const)
        dP = [(j + 1) * P[j + 1] for j in range(len(P) - 1)] + [0.0, 0.0]
        lw = [dP[0]] + [d - w * p for d, p in zip(dP[1:], P)]
        k_s[0] -= rhs_const
        res = [abs(k - x) for k, x in zip(k_s, lw)]
        res_max = math.nan if any(map(math.isnan, res)) else max(res)
        residuals.append(res_max)
        if not res_max <= RESIDUAL_TOL:
            raise HierarchyInconsistencyError(
                f"hierarchy inconsistency at order {s}: residual {res_max:.3e}"
            )
    return CoefficientTable(tuple(map(np.array, W)), tuple(lambdas), tuple(residuals))


def _bits(run, *args):
    """Every output bit of a hierarchy run, or its error and message."""
    try:
        table = run(*args)
    except HierarchyInconsistencyError as exc:
        return "error", str(exc)
    return ([(len(p), p.tobytes()) for p in table.W],
            np.array(table.lambdas).tobytes(), np.array(table.residuals).tobytes())


def _same_as_reference(bound, m, order):
    geom = _geometry(bound, m)
    v = _v_series(bound, geom, 2 * order)
    got = _bits(_hierarchy, v, geom, order)
    assert got == _bits(_reference_hierarchy, v, geom, order), (bound.values, m, order)
    return got[0] == "error"


@pytest.mark.parametrize("order", [3, 6])
def test_hierarchy_equals_reference_on_preset_rows(order):
    for preset in PRESETS.values():
        for x in preset.rows:
            _same_as_reference(_hybrid(preset.gamma(x), preset.m), preset.m, order)


def _high_order_potentials():
    """The potentials of the high_order benchmark, at fixed fields."""
    for m in range(-3, 4):
        yield _coulomb(), m
        for gamma in (0.5, 1.37, 2.5):
            yield _oscillator(gamma), m
            yield _hybrid(gamma, m), m


@pytest.mark.parametrize("order", [6, 10, 15, 20])
def test_hierarchy_equals_reference_at_high_order(order):
    # at K = 20 some end in an error
    errors = sum(_same_as_reference(bound, m, order) for bound, m in _high_order_potentials())
    assert errors == (7 if order == 20 else 0)


@pytest.mark.parametrize("order", [3, 6, 10, 15])
def test_hierarchy_equals_reference_on_exact_potentials(order):
    # Coulomb's and the oscillator's W_s end in exactly vanishing coefficients
    for m in range(6):
        _same_as_reference(_coulomb(), m, order)
        _same_as_reference(_oscillator(1.5), m, order)


def test_an_all_negative_zero_product_sum_equals_the_full_sum():
    # The gathers skip a product's dead terms, each +0.0 * +0.0.  In the full
    # sum they turn a sum of -0.0's into +0.0; np.add.reduce's start, +0.0,
    # does the same, so no term stands in for them.  A subnormal x^3 of v^(1)
    # underflows W_1[2] to -0.0 beside W_1[0] = 0.25, so both live terms of
    # (W_1 W_1)[2] are -0.0, with the dead W_1[1]^2 between them
    assert math.copysign(1.0, np.add.reduce(np.full((2, 4, 1), -0.0), axis=0)[0, 0]) == 1.0
    geom = Geometry(rho0=1.0, w=4.0, beta=-1.0, lbar=1.0, l=0, v0=0.0)
    v = ([-2.0, 0.0, 4.0], [0.0, -1.0, 0.0, 5e-324], [0.5, 0.0, 0.0, 0.0, 5e-324])
    W_1 = _hierarchy(v, geom, 1).W[1]
    assert W_1.tolist() == [0.25, 0.0, 0.0] and np.signbit(W_1).tolist() == [False, False, True]
    assert _bits(_hierarchy, v, geom, 1) == _bits(_reference_hierarchy, v, geom, 1)


def test_a_negative_zero_of_v_enters_k_s_as_positive_zero():
    # the kernel sums v^(s) from +0.0, so the -0.0 of v^(2)[2] enters K_2 as
    # +0.0, which flips the signs of W_2's zeros; the reference must agree
    geom = Geometry(rho0=1.0, w=4.0, beta=-1.0, lbar=1.0, l=0, v0=0.0)
    v = ([-2.0, 0.0, 4.0], [0.0, -1.0, 0.0, 5e-324], [0.5, 0.0, -0.0, 0.0, 5e-324])
    W_2 = _hierarchy(v, geom, 1).W[2]
    assert np.signbit(W_2).tolist() == [False, True, False, True]
    assert _bits(_hierarchy, v, geom, 1) == _bits(_reference_hierarchy, v, geom, 1)


def test_hierarchy_calls_no_blas(monkeypatch):
    # the products are elementwise multiplies and adds, whatever the host's BLAS
    def blas(*args, **kwargs):
        raise AssertionError("BLAS-backed call in the hierarchy")

    for name in ("convolve", "dot", "vdot", "inner", "matmul", "tensordot", "einsum"):
        monkeypatch.setattr(np, name, blas)
    for bound, m in ((_hybrid(1.0, 0), 0), (_coulomb(), 1)):
        geom = _geometry(bound, m)
        _hierarchy(_v_series(bound, geom, 20), geom, 10)


def _mp_partial_sums(v, geom, max_order):
    """EN_0..EN_max_order from a 50-digit copy of the hierarchy and of the
    energy assembly, fed the float v-series and frame."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        w, beta = mp.mpf(geom.w), mp.mpf(geom.beta)
        W = [[mp.mpf(0), -w / 2]]
        lambdas = []
        for s in range(1, 2 * max_order + 1):
            k_s = [mp.mpf(x) for x in v[s].tolist()]
            for p in range(1, s // 2 + 1):
                a, b = W[p], W[s - p]
                twice = 1 if 2 * p == s else 2
                for j in range(s + 3):
                    terms = range(max(0, j - len(b) + 1), min(len(a), j + 1))
                    k_s[j] -= twice * mp.fdot((a[i], b[j - i]) for i in terms)
            c = [mp.mpf(0)] * (s + 4)
            for j in range(s + 2, 0, -1):
                c[j - 1] = ((j + 1) * c[j + 1] - k_s[j]) / w
            W.append(c[: s + 2])
            if s % 2 == 0:
                rhs_const = k_s[0] - c[1]
                lambdas.append(rhs_const - (beta * beta - mp.mpf(0.25)) if s == 2 else rhs_const)
        rho0, lbar, v0 = mp.mpf(geom.rho0), mp.mpf(geom.lbar), mp.mpf(geom.v0)
        sums = [lbar ** 2 / rho0 ** 2 + v0]
        sums.append(sums[0] + (beta * beta - mp.mpf(0.25) + lambdas[0]) / rho0 ** 2)
        for k in range(2, max_order + 1):
            sums.append(sums[k - 1] + lambdas[k - 1] / rho0 ** 2 / lbar ** (k - 1))
        return sums


def _hierarchy_errors():
    """|EN_K - its 50-digit value| over the high_order potentials, K = 6, 10, 15."""
    mp = pytest.importorskip("mpmath")
    errors = []
    for bound, m in _high_order_potentials():
        geom = _geometry(bound, m)
        exact = _mp_partial_sums(_v_series(bound, geom, 30), geom, 15)
        for order in (6, 10, 15):
            _, _, energy = solve(bound, m, order)
            with mp.workdps(50):
                errors.append(float(abs(mp.mpf(energy.partial_sums[order]) - exact[order])))
    return errors


# Measured with the np.convolve hierarchy that the fixed-order products
# replaced.  Both orders carry the same hybrid m = 0 errors at K = 15 (up to
# 4.7e6: float arithmetic amplifies rounding there, ROADMAP item 3); the
# largest, at gamma = 1.37, moved by 9e-5 (2e-11 of it) with the summation
# order, so the maximum is held to 1e-9 of its size.
CONVOLVE_ERROR_MEDIAN = 2.5889709169241396e-16
CONVOLVE_ERROR_MAX = 4685705.198461928


def test_hierarchy_accuracy_no_worse_than_convolve():
    errors = _hierarchy_errors()
    assert len(errors) == 147
    assert statistics.median(errors) <= CONVOLVE_ERROR_MEDIAN
    assert max(errors) <= CONVOLVE_ERROR_MAX * (1.0 + 1e-9)


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
