import math
import random

import numpy as np
import pytest

from pslet2d.expressions import (
    BoundPotential,
    PotentialEvalError,
    bind_params,
    parse_potential,
)
from pslet2d.engine import _SCAN_GRID
from pslet2d.jets import jet_lift, taylor_jet
from test_batch import _random_text


def _bound(text, params=None):
    return bind_params(parse_potential(text), params or {})


def test_coulomb_jet_at_quarter():
    a = jet_lift(_bound("-2/rho"), 0.25, 3)
    assert a == pytest.approx([-8.0, 32.0, -128.0, 512.0], rel=1e-14)
    assert math.factorial(2) * a[2] == pytest.approx(-256.0, rel=1e-14)


def test_polynomial_jet_truncates_exactly():
    a = jet_lift(_bound("rho^2"), 2.0, 3)
    assert a == pytest.approx([4.0, 4.0, 1.0, 0.0], abs=1e-15)


def test_hybrid_jet():
    a = jet_lift(_bound("m*g - 2/rho + g^2*rho^2/4", {"m": 0.0, "g": 1.0}), 1.0, 2)
    assert a == pytest.approx([-1.75, 2.5, -1.75], rel=1e-14)


def test_center_must_be_positive():
    with pytest.raises(PotentialEvalError):
        jet_lift(_bound("-2/rho"), 0.0, 2)
    with pytest.raises(PotentialEvalError):
        jet_lift(_bound("-2/rho"), -1.0, 2)


def test_order_must_be_nonnegative():
    with pytest.raises(ValueError, match="order must be >= 0"):
        jet_lift(_bound("-2/rho"), 1.0, -1)


def test_zeroth_coefficient_matches_eval():
    rng = random.Random(11)
    bound = _bound("-a/rho + b*rho^2 + c*rho", {"a": 1.5, "b": 0.3, "c": 0.7})
    for _ in range(10):
        c = rng.uniform(0.2, 5.0)
        a = jet_lift(bound, c, 4)
        assert a[0] == pytest.approx(bound(c), rel=1e-14)


def test_polynomial_reexpansion_matches_binomial():
    # shifting a polynomial's expansion point is exact binomial re-expansion
    rng = random.Random(99)
    for _ in range(20):
        coeffs = [rng.uniform(-2, 2) for _ in range(5)]  # c0 + c1 rho + ... + c4 rho^4
        text = " + ".join(f"({c})*rho^{k}" for k, c in enumerate(coeffs) if k > 0)
        text += f" + ({coeffs[0]})*rho^1/rho"  # keep c0 while still mentioning rho
        bound = _bound(text)
        center = rng.uniform(0.5, 3.0)
        a = jet_lift(bound, center, 4)
        p = np.polynomial.Polynomial(coeffs)
        expected = [p.deriv(k)(center) / math.factorial(k) for k in range(5)]
        assert a == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_leibniz_product_rule():
    # jet of a product equals the convolution of the factor jets
    f = _bound("-2/rho")
    g = _bound("rho^2/4 + rho")
    fg = _bound("(-2/rho)*(rho^2/4 + rho)")
    center, order = 1.3, 6
    jf = jet_lift(f, center, order)
    jg = jet_lift(g, center, order)
    jfg = jet_lift(fg, center, order)
    assert jfg == pytest.approx(np.convolve(jf, jg)[: order + 1], rel=1e-13)


def _fd_derivative(bound, rho, k, h):
    """Central finite difference of order k, Richardson-extrapolated twice.

    Evaluations run in extended precision so the comparison is limited by
    truncation error rather than cancellation in the high-order stencils.
    """
    rho = np.longdouble(rho)
    h = np.longdouble(h)

    def diff(step):
        if k == 1:
            return (bound(rho + step) - bound(rho - step)) / (2 * step)
        if k == 2:
            return (bound(rho + step) - 2 * bound(rho) + bound(rho - step)) / step**2
        if k == 3:
            return (
                bound(rho + 2 * step)
                - 2 * bound(rho + step)
                + 2 * bound(rho - step)
                - bound(rho - 2 * step)
            ) / (2 * step**3)
        if k == 4:
            return (
                bound(rho + 2 * step)
                - 4 * bound(rho + step)
                + 6 * bound(rho)
                - 4 * bound(rho - step)
                + bound(rho - 2 * step)
            ) / step**4
        raise ValueError(k)

    # two Richardson levels: cancel the O(h^2) and O(h^4) errors
    d1, d2, d4 = diff(h), diff(h / 2), diff(h / 4)
    r1 = d2 + (d2 - d1) / 3.0
    r2 = d4 + (d4 - d2) / 3.0
    return r2 + (r2 - r1) / 15.0


def test_against_finite_differences_random_corpus():
    rng = random.Random(20240601)
    corpus = [
        ("-a/rho + b*rho^2 + c*rho", lambda: {"a": rng.uniform(0.5, 3),
                                              "b": rng.uniform(0.1, 1),
                                              "c": rng.uniform(0.1, 1)}),
        ("a*rho^3 - b/rho^2", lambda: {"a": rng.uniform(0.1, 1),
                                       "b": rng.uniform(0.5, 2)}),
        ("a*rho^1.5 + b*rho", lambda: {"a": rng.uniform(0.5, 2),
                                       "b": rng.uniform(0.1, 1)}),
    ]
    for text, draw in corpus:
        for _ in range(4):
            bound = _bound(text, draw())
            rho = rng.uniform(1.0, 2.5)
            a = jet_lift(bound, rho, 4)
            for k in range(1, 5):
                exact = math.factorial(k) * a[k]
                approx = _fd_derivative(bound, rho, k, h=1e-2 * (1 + k))
                scale = max(1.0, abs(exact))
                assert abs(approx - exact) / scale < 1e-7, (text, k)


def test_pole_inside_series_division():
    with pytest.raises(PotentialEvalError):
        jet_lift(_bound("1/(rho - 1)"), 1.0, 3)


def test_real_power_jet():
    a = jet_lift(_bound("rho^0.5"), 4.0, 3)
    # d/drho sqrt: 1/(2 sqrt), -1/(4 rho^1.5), 3/(8 rho^2.5)
    assert math.factorial(0) * a[0] == pytest.approx(2.0)
    assert math.factorial(1) * a[1] == pytest.approx(0.25)
    assert math.factorial(2) * a[2] == pytest.approx(-1.0 / 32.0)
    assert math.factorial(3) * a[3] == pytest.approx(3.0 / 256.0)


@pytest.mark.parametrize("order", [2, 6])
@pytest.mark.parametrize(
    "text, params, rel",
    [
        ("m*g - 2/rho + g^2*rho^2/4", {"m": 0.0, "g": 1.0}, 0.0),
        ("-2/rho", {}, 0.0),
        ("rho^4-6*rho^2-2/rho", {}, 0.0),
        ("a*rho^1.5 + b*rho", {"a": 1.3, "b": 0.4}, 0.0),
    ],
)
def test_grid_expansion_matches_single_points(text, params, rel, order):
    # one walk over the scan grid gives each point's single-point coefficients
    bound = _bound(text, params)
    batch = np.asarray(taylor_jet(bound, _SCAN_GRID, order))
    stacked = np.stack([jet_lift(bound, r, order) for r in _SCAN_GRID], axis=1)
    assert batch.shape == (order + 1, len(_SCAN_GRID))
    if rel == 0.0:
        assert np.array_equal(batch, stacked)
    else:
        np.testing.assert_allclose(batch, stacked, rtol=rel, atol=0.0)


def test_real_powers_on_a_grid_equal_single_points():
    # float_pow takes every entry through the C library's pow, as a float does
    bound = _bound("a*rho^1.5 + (rho + b)^-0.5", {"a": 1.3, "b": 0.4})
    batch = np.asarray(taylor_jet(bound, _SCAN_GRID, 4))
    assert np.array_equal(batch, np.stack([jet_lift(bound, r, 4) for r in _SCAN_GRID], axis=1))


def test_array_parameters_batch_along_the_points():
    # "a*rho" puts a parameter array left of a series: the series must take
    # the operation, where numpy would build an object array
    spec = parse_potential("a*rho - a/rho + a^2*rho^2")
    a = np.array([2.0, 3.0])
    batch = np.asarray(taylor_jet(BoundPotential(spec, {"a": a}), a, 3))
    assert batch.dtype == float
    for j, x in enumerate(a.tolist()):
        assert np.array_equal(batch[:, j], jet_lift(bind_params(spec, {"a": x}), x, 3))


def _nan_bits(a):
    """The bytes of ``a`` with every NaN made one NaN, so that NaNs compare as NaN."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


@pytest.mark.parametrize("order", [2, 8, 32, 62, 122])
def test_point_jets_equal_their_batch_entries(order):
    # a point's coefficients are Python floats and a batch's arrays of the
    # batch's shape, even where the tree reduces to a constant; where a float
    # would raise (a pole, a zero or negative base under a real power), the
    # point's quotient or power runs on numpy scalars and its result goes
    # back to floats.  Order 122 is the lift of K = 60
    rng = random.Random(order)
    cases = [("1/(rho-1)", {}, 1.0), ("(rho-1)^0.5", {}, 1.0), ("(1-rho)^1.5", {}, 2.0),
             ("1/rho + rho^-1.5", {}, 1e-300),  # the last overflows
             ("rho^0", {}, 1.0), ("a*rho^0", {"a": -0.0}, 1.0)]
    while len(cases) < 40:
        text = _random_text(rng, 4)
        if "rho" in text:
            params = {k: rng.choice((0.0, -0.0, 1.5, -2.0, 3.0, 1e200, 1e-300))
                      for k in parse_potential(text).params}
            cases.append((text, params, rng.choice((0.3, 1.0, 1.7, 2.0))))
    for text, params, center in cases:
        bound = _bound(text, params)
        centers = [0.5, center, 2.5]
        try:
            batch = taylor_jet(bound, np.array(centers), order)
        except ArithmeticError:  # a term of the parameters alone fails
            with pytest.raises(ArithmeticError):
                np.asarray(taylor_jet(bound, center, order))
            continue
        assert all(type(x) is np.ndarray and x.shape == (3,) for x in batch), (text, params)
        batch = np.array(batch)
        for i, c in enumerate(centers):
            point = taylor_jet(bound, c, order)
            assert all(type(x) is float for x in point), (text, params, c)
            assert _nan_bits(point) == _nan_bits(batch[:, i]), (text, params, c)
    # a tree reduced to a constant with a parameter column gives arrays too
    spec, a, centers = parse_potential("a*rho^0"), [1.5, -0.0, 3.0], [0.5, 1.0, 2.5]
    batch = taylor_jet(BoundPotential(spec, {"a": np.array(a)}), np.array(centers), order)
    assert all(type(x) is np.ndarray and x.shape == (3,) for x in batch)
    for i, (x, c) in enumerate(zip(a, centers)):
        point = taylor_jet(bind_params(spec, {"a": x}), c, order)
        assert all(type(v) is float for v in point), x
        assert _nan_bits(point) == _nan_bits(np.array(batch)[:, i]), x
