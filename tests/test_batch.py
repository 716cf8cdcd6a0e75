"""Batched solves: the lockstep root finder, the batched scan and solve_batch.

Each row of a batch must equal its lone solve bit for bit, so these tests
compare with ``==``, never with a tolerance.
"""

import math
import random

import numpy as np
import pytest

from pslet2d import engine, jets, tables
from pslet2d.engine import SCAN_POINTS, _SCAN_GRID, _frame, _scan, brentq, solve, solve_batch
from pslet2d.expressions import bind_params, parse_potential

scipy_brentq = pytest.importorskip("scipy.optimize").brentq

HYBRID = parse_potential(tables.HYBRID_EXPRESSION)


def _bound(text, params=None):
    return bind_params(parse_potential(text), params or {})


def _key(result):
    """Every number of a solve, or the type and message of its error."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    geom, table, energy = result
    return (
        (geom.rho0, geom.w, geom.beta, geom.lbar, geom.l, geom.v0),
        tuple(tuple(w.tolist()) for w in table.W),
        tuple(table.lambdas),
        tuple(table.residuals),
        (energy.e_minus2, tuple(energy.corrections), tuple(energy.partial_sums), energy.e_minus1),
    )


def _lone(text, params, m, max_order=3):
    try:
        return solve(_bound(text, params), m, max_order)
    except (engine.SolverError, ArithmeticError) as exc:
        return exc


def _cases():
    """Preset rows, the acceptance corpus and the high-order benchmark potentials."""
    from test_acceptance import _random_corpus

    for preset in tables.PRESETS.values():
        for x in preset.rows:
            yield bind_params(HYBRID, {"m": float(preset.m), "g": preset.gamma(x)}), preset.m
    for bound, m, _ in _random_corpus():
        yield bound, m
    rng = random.Random(11)
    for m in range(-3, 4):
        yield _bound("-2/rho"), m
        yield _bound("g^2*rho^2/4", {"g": rng.uniform(0.5, 2.5)}), m
        yield bind_params(HYBRID, {"m": float(m), "g": rng.uniform(0.5, 2.5)}), m


def _brackets(bound, l):
    scan = _frame(bound, _SCAN_GRID, l)[0]
    sign = np.sign(scan)
    cells = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
    return _SCAN_GRID[cells], _SCAN_GRID[cells + 1]


def _lanes(fs, a, b):
    """``brentq``'s arguments for lane i solving fs[i] on [a[i], b[i]]."""
    def f(lanes, x):
        return [fs[i](r) for i, r in zip(lanes, x)]

    return f, a, b, [g(r) for g, r in zip(fs, a)], [g(r) for g, r in zip(fs, b)]


# ---------------------------------------------------------------------------
# brentq

def _scipy_root(f, a, b):
    """scipy's root, or None where it raises."""
    try:
        return scipy_brentq(f, a, b, xtol=1e-300, rtol=8.9e-16)
    except (ValueError, RuntimeError):
        return None


def test_brentq_equals_scipy_on_every_scan_bracket():
    brackets = 0
    for bound, m in _cases():
        l = abs(m)
        lo, hi = _brackets(bound, l)
        frame = lambda r: float(_frame(bound, r, l)[0])  # noqa: E731
        expected = [_scipy_root(frame, a, b) for a, b in zip(lo, hi)]
        assert brentq(*_lanes([frame] * len(lo), lo, hi)) == expected, (str(bound), m)
        brackets += len(lo)
    assert brackets >= 84  # at least one per case


def test_brentq_equals_scipy_on_hard_functions():
    # flat roots, steep walls and poles drive every branch: interpolation,
    # extrapolation, rejected short steps and bisection
    rng = random.Random(3)
    fs, a, b = [], [], []
    for _ in range(200):
        r = rng.uniform(-2.0, 2.0)
        kind = rng.randrange(7)
        if kind == 0:
            f = lambda x, r=r, k=rng.choice([3, 5, 9]): (x - r) ** k  # noqa: E731
        elif kind == 1:
            f = lambda x, r=r: math.atan(50.0 * (x - r)) + 1e-3 * (x - r)  # noqa: E731
        elif kind == 2:
            f = lambda x, r=r: math.exp(4.0 * (x - r)) - 1.0  # noqa: E731
        elif kind == 3:
            f = lambda x, r=r: 1.0 / (x - r) if x != r else math.inf  # noqa: E731
        elif kind == 4:
            f = lambda x, r=r: math.copysign(abs(x - r) ** 0.1, x - r)  # noqa: E731
        elif kind == 5:
            f = lambda x, r=r: math.floor(4.0 * (x - r)) + 0.5  # noqa: E731
        else:  # tiny values: the extrapolation's divisor underflows to zero
            f = lambda x, r=r: 1e-200 * (x - r) ** 3  # noqa: E731
        fs.append(f)
        a.append(r - rng.uniform(0.01, 3.0))
        b.append(r + rng.uniform(0.01, 3.0))
    got = brentq(*_lanes(fs, a, b))
    assert got == [_scipy_root(f, lo, hi) for f, lo, hi in zip(fs, a, b)]
    assert got.count(None) > 0  # some lanes run out of iterations


def test_brentq_lanes_match_scipy_on_failures(monkeypatch):
    def clean(x):
        return x ** 3 - 2.0

    def nan_at_root(x):
        return math.nan if 1.25 < x < 1.27 else clean(x)

    # a root, and NaN where the root is; as on a scan bracket, the ends are
    # non-NaN, nonzero and of opposite signs
    fs, a, b = [clean, nan_at_root], [0.0, 1.0], [1.5, 2.0]
    got = brentq(*_lanes(fs, a, b))
    assert got[0] == scipy_brentq(clean, 0.0, 1.5, xtol=1e-300, rtol=8.9e-16)
    with pytest.raises(ValueError):
        scipy_brentq(nan_at_root, 1.0, 2.0, xtol=1e-300, rtol=8.9e-16)
    assert got[1] is None
    # too few iterations: scipy raises, the lane is dropped
    for maxiter in range(1, 12):
        try:
            expected = scipy_brentq(clean, 0.0, 1.5, xtol=1e-300, rtol=8.9e-16, maxiter=maxiter)
        except RuntimeError:
            expected = None
        monkeypatch.setattr(engine, "_MAXITER", maxiter)
        assert brentq(*_lanes([clean], [0.0], [1.5])) == [expected]


def test_solve_batch_hands_brentq_only_scan_brackets(monkeypatch):
    # brentq has no branch for a NaN or zero end, or for ends of one sign
    ends = []

    def spy(f, a, b, fa, fb):
        ends.extend(zip(a.tolist(), b.tolist(), fa.tolist(), fb.tolist()))
        return brentq(f, a, b, fa, fb)

    monkeypatch.setattr(engine, "brentq", spy)
    batches: dict = {}
    for bound, m in _cases():
        batches.setdefault((bound.spec, m), []).append(bound)
    for (_, m), rows in batches.items():
        solve_batch(rows, m)
    assert len(ends) >= 84  # at least one per case
    for lo, hi, f_lo, f_hi in ends:
        assert engine.RHO_LO <= lo < hi <= engine.RHO_HI
        assert not (math.isnan(f_lo) or math.isnan(f_hi))
        assert f_lo != 0.0 and f_hi != 0.0 and (f_lo < 0.0) != (f_hi < 0.0)


# ---------------------------------------------------------------------------
# the batched scan

@pytest.mark.parametrize(
    "text, rows",
    [
        (tables.HYBRID_EXPRESSION, {"m": -1.0, "g": [0.0, 0.5, 1.0, 4.0, 40.0]}),
        ("a*rho^1.5 + b*rho - c/rho^0.5", {"a": [1.3, 0.2, -1.0], "b": [0.4, 0.0, 2.0],
                                           "c": 1.0}),
        ("(rho^2 + a)^2.5 - 2/rho", {"a": [1.0, -3.0, 0.5]}),
    ],
)
def test_batched_scan_equals_lone_points(text, rows):
    spec = parse_potential(text)
    values = {k: np.array(v) if isinstance(v, list) else v for k, v in rows.items()}
    n = max(len(v) for v in values.values() if isinstance(v, np.ndarray))
    for l in (0, 2):
        batch = _scan(spec, values, n, l)
        for i in range(n):
            row = bind_params(spec, {k: v[i] if isinstance(v, np.ndarray) else v
                                     for k, v in values.items()})
            alone = _scan(spec, row.values, 1, l)[0]
            np.testing.assert_array_equal(batch[i], alone)  # NaN-aware and exact
            points = np.array([float(_frame(row, r, l)[0]) for r in _SCAN_GRID[::7]])
            np.testing.assert_array_equal(alone[::7], points)


def test_array_frames_equal_float_frames():
    # _frames_at takes a lone point as a float and more as one array
    spec = parse_potential("a*rho^1.5 + b*rho - 2/rho")
    values = {"a": np.array([1.3, 0.2, -1.0, 0.7]), "b": 0.4}
    rows = [bind_params(spec, {"a": a, "b": 0.4}) for a in values["a"].tolist()]
    points = [(0, 0.3), (1, 1.7), (2, 1e-4), (3, 25.0), (1, 3.1)]
    for l in (0, 2):
        batch = engine._frames_at(rows, values, points, l)
        alone = [engine._frames_at(rows, values, [p], l)[0] for p in points]
        assert repr(batch) == repr(alone)  # exact, NaN included


# ---------------------------------------------------------------------------
# solve_batch

def test_table_rows_equal_lone_solves():
    for preset in tables.PRESETS.values():
        gammas = [preset.gamma(x) for x in preset.rows]
        rows = [bind_params(HYBRID, {"m": float(preset.m), "g": g}) for g in gammas]
        for gamma, row in zip(gammas, solve_batch(rows, preset.m)):
            alone = _lone(tables.HYBRID_EXPRESSION, {"m": float(preset.m), "g": gamma}, preset.m)
            assert _key(row) == _key(alone), (preset.name, gamma)


@pytest.mark.parametrize("max_order", [6, 10, 15])
def test_table_rows_equal_lone_solves_at_high_order(max_order):
    for preset in tables.PRESETS.values():
        gammas = [preset.gamma(x) for x in preset.rows]
        rows = [bind_params(HYBRID, {"m": float(preset.m), "g": g}) for g in gammas]
        for gamma, row in zip(gammas, solve_batch(rows, preset.m, max_order)):
            alone = _lone(tables.HYBRID_EXPRESSION, {"m": float(preset.m), "g": gamma},
                          preset.m, max_order)
            assert _key(row) == _key(alone), (preset.name, gamma)


@pytest.mark.parametrize("max_order", [3, 10, 20])
def test_random_rows_equal_lone_solves(max_order):
    rng = random.Random(max_order)
    text = "-a/rho + b*rho^2 + c*rho^1.5"
    for m in (-2, 0, 3):
        c = rng.uniform(0.0, 1.0)  # shared by every row
        rows = [{"a": rng.uniform(0.5, 3.0), "b": rng.uniform(0.1, 2.0), "c": c}
                for _ in range(5)]
        batch = solve_batch([_bound(text, row) for row in rows], m, max_order)
        for row, result in zip(rows, batch):
            assert _key(result) == _key(_lone(text, row, m, max_order))


@pytest.mark.parametrize("last", ["1/b", "1/(1/b)", "(1/b)^0"])
def test_mixed_batch_keeps_each_rows_error(last):
    # rows: a stable frame, V' < 0 everywhere (no frame), a parameter-only
    # pole (b = 0), and a stable frame again.  Alone, the pole row raises;
    # in array arithmetic 1/(1/0) and (1/0)^0 are finite, so a check on V
    # alone would let that row solve in the batch
    text = f"a*rho + c/rho + {last}"
    rows = [dict(zip("acb", r)) for r in
            [(1.0, -2.0, 1.0), (-1.0, 2.0, 1.0), (1.0, -2.0, 0.0), (2.0, -1.0, 3.0)]]
    batch = solve_batch([_bound(text, row) for row in rows], 1)
    assert [_key(r) for r in batch] == [_key(_lone(text, row, 1)) for row in rows]
    assert isinstance(batch[1], engine.NoStableFrameError)
    assert isinstance(batch[2], engine.NoStableFrameError)
    assert not isinstance(batch[0], Exception) and not isinstance(batch[3], Exception)


def _random_text(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(("rho", "rho", "a", "b", "0", "2", "0.5", "(0-3)", "1e200"))
    if rng.random() < 0.1:
        return "-" + _random_text(rng, depth - 1)
    return f"({_random_text(rng, depth - 1)}{rng.choice('+-*/^')}{_random_text(rng, depth - 1)})"


def test_fails_alone_exactly_when_a_lone_expansion_raises():
    # the check walks the tree with rho = NaN; a check in evaluate that
    # raised on a NaN operand would make it fail rows that solve alone
    rng = random.Random(18)
    verdicts = []
    while len(verdicts) < 3000:
        text = _random_text(rng, 4)
        if "rho" not in text:
            continue
        spec = parse_potential(text)
        row = bind_params(spec, {k: rng.choice((0.0, -0.0, 1.5, -2.0, 3.0, 1e200, 1e-300))
                                 for k in spec.params})
        try:
            jets.taylor_coeffs(row, 1.7, 2)
            raised = False
        except ArithmeticError:
            raised = True
        assert engine._fails_alone(row) == raised, (text, row.values)
        verdicts.append(raised)
    assert 300 < sum(verdicts) < 2700  # both verdicts are well represented


def test_a_failed_batch_lift_gives_each_row_its_lone_error(monkeypatch):
    # at g = 1e15 and 3e15 rho0 is 1.8e-4 and 1.4e-4, where the order-62 jet
    # overflows; g = 1e16 has no frame.  The two-row lift raises, so each row
    # is lifted alone for its own error
    text, rows = "g*rho^2 - 2/rho", [{"g": g} for g in (1e15, 3e15, 1e16)]
    centers, jet_lift = [], engine.jet_lift
    monkeypatch.setattr(engine, "jet_lift", lambda bound, center, order:
                        centers.append(center) or jet_lift(bound, center, order))
    batch = solve_batch([_bound(text, row) for row in rows], 0, 60)
    monkeypatch.undo()
    assert [_key(r) for r in batch] == [_key(_lone(text, row, 0, 60)) for row in rows]
    assert [np.shape(c) for c in centers] == [(2,), (), ()]
    assert centers[1:] == centers[0].tolist()
    for result, rho0 in zip(batch, centers[1:]):
        assert isinstance(result, engine.PotentialEvalError)
        assert str(result) == f"non-finite jet coefficients when expanding about rho={rho0}"
    assert isinstance(batch[2], engine.NoStableFrameError)


@pytest.mark.parametrize("value", [1e308, math.inf, math.nan])
def test_non_finite_residual_fails_only_its_row(value):
    # a v-series entry that overflows row 1's order-3 balance leaves NaN in
    # its residual; the rows beside it finish as they do alone
    cases = [(_bound("-2/rho"), 1), (bind_params(HYBRID, {"m": 0.0, "g": 1.0}), 0),
             (_bound("g^2*rho^2/4", {"g": 2.0}), 2)]
    geoms = [engine.solve_geometry([bound], m)[0] for bound, m in cases]
    alone = [engine.build_v_series([bound], [geom], 6)[0] for (bound, _), geom in zip(cases, geoms)]
    v = [np.concatenate(rows) for rows in zip(*alone)]
    v[3][1, 5] = value
    batch = engine.solve_hierarchy(v, geoms, 3)
    assert isinstance(batch[1], engine.HierarchyInconsistencyError)
    assert str(batch[1]) == "hierarchy inconsistency at order 3: residual nan"
    for r in (0, 2):
        table, = engine.solve_hierarchy(alone[r], geoms[r:r + 1], 3)
        assert [w.tobytes() for w in batch[r].W] == [w.tobytes() for w in table.W]
        assert (batch[r].lambdas, batch[r].residuals) == (table.lambdas, table.residuals)


def test_v_series_overflow_fails_only_its_row():
    # rho0 = 7071 at g = 4e-8, and rho0^81 leaves the float range at order 39
    rows = [{"g": 1.0}, {"g": 4e-8}, {"g": 2.0}]
    batch = solve_batch([_bound("g^2*rho^2/4", row) for row in rows], 0, 39)
    assert [_key(r) for r in batch] == [_key(_lone("g^2*rho^2/4", row, 0, 39)) for row in rows]
    assert _key(batch[1]) == ("PotentialEvalError", "v-series overflow: rho0^81 exceeds the "
                              "float range at rho0 = 7071.067811865475")
    assert not isinstance(batch[0], Exception) and not isinstance(batch[2], Exception)


def test_one_batch_keeps_a_lift_failure_an_overflow_and_solved_rows():
    # one v-series failure list holds both of build_v_series' failures: at
    # g = 1e15 the batch lift raises, so each row is lifted alone; at g = 1e-15
    # rho0^83 overflows after the lift; the rows beside them go on to the
    # hierarchy, where Coulomb plus the oscillator fails and the oscillator solves
    text, rows = "g*rho^2 - c/rho", [{"g": g, "c": c} for g, c in
                                     [(1e15, 2.0), (1e-15, 0.0), (1.0, 2.0), (1.0, 0.0)]]
    batch = solve_batch([_bound(text, row) for row in rows], 0, 45)

    def outcome(result):
        if isinstance(result, Exception):
            return type(result).__name__, str(result)
        return [float.hex(e) for e in result[2].partial_sums]

    assert [outcome(r) for r in batch] == [outcome(_lone(text, row, 0, 45)) for row in rows]
    assert [outcome(r) for r in batch[:3]] == [
        ("PotentialEvalError",
         "non-finite jet coefficients when expanding about rho=0.00017781410470994735"),
        ("PotentialEvalError",
         "v-series overflow: rho0^83 exceeds the float range at rho0 = 5623.413251903491"),
        ("HierarchyInconsistencyError", "hierarchy inconsistency at order 38: residual 1.164e-09"),
    ]
    assert batch[3][2].partial_sums[-1] == 2.0


def test_order_above_max_is_refused_before_any_solve(monkeypatch):
    monkeypatch.setattr(engine, "_solve_rows", None)  # a solve would fail the test here
    with pytest.raises(ValueError, match="max_order"):
        solve_batch([_bound("-2/rho")], 0, engine.MAX_ORDER + 1)


def _assert_rows_equal_lone_solves(text, rows, m, max_order=3):
    batch = solve_batch([_bound(text, row) for row in rows], m, max_order)
    assert [_key(r) for r in batch] == [_key(_lone(text, row, m, max_order)) for row in rows]


@pytest.mark.parametrize("m", [0, -2])
def test_rows_that_differ_in_an_exponent_equal_lone_solves(monkeypatch, m):
    # a and p sit in exponents (in the second text a sits in an exponent's
    # exponent), so the rows form one batch per (a, p) pair; the batch of
    # a = 1.5, p = 2 holds three rows that differ in b
    rows = [{"a": a, "p": p, "b": b} for a, p, b in
            [(1.5, 2.0, 0.3), (2.0, 2.0, 0.3), (1.5, 2.0, 0.7), (1.0, 3.0, 0.3),
             (1.5, 2.0, 1.1), (2.0, 2.0, 0.5)]]
    solve_rows = engine._solve_rows
    for text in ("b*rho^a + rho^p/10 - 2/rho", "b*rho^(p^(a/2)) - 2/rho"):
        sizes = []
        monkeypatch.setattr(engine, "_solve_rows", lambda rows, *a: sizes.append(len(rows))
                            or solve_rows(rows, *a))
        _assert_rows_equal_lone_solves(text, rows, m)
        assert sizes == [3, 2, 1] + [1] * len(rows)  # the batches, then the lone solves


def test_signed_zeros_are_distinct_values(monkeypatch):
    # 0.0 == -0.0, but their bits differ: rows holding both share no value
    def columns(text, rows, m):
        """The parameter columns of each batch that solve_batch solves."""
        seen, solve_geometry = [], engine.solve_geometry
        with monkeypatch.context() as patch:
            patch.setattr(engine, "solve_geometry",
                          lambda rows, m: seen.append(engine._columns(rows)) or solve_geometry(rows, m))
            _assert_rows_equal_lone_solves(text, rows, m)
        return [(type(v["a"]).__name__, [math.copysign(1.0, a) for a in np.atleast_1d(v["a"])])
                for v in seen[:-len(rows)]]  # the last len(rows) are the lone solves

    zeros = [{"a": 0.0}, {"a": -0.0}, {"a": 0.0}]
    assert columns("rho^(a+2) - 2/rho", zeros, 1) == [("float", [1.0]), ("float", [-1.0])]
    assert columns("a/rho^2 + rho^2 - 2/rho", zeros, 1) == [("ndarray", [1.0, -1.0, 1.0])]
    assert columns("a/rho^2 + rho^2 - 2/rho", zeros[1:2] * 2, 0) == [("float", [-1.0])]


def test_a_sign_change_across_a_kink_names_the_rejected_root():
    # V = 2 rho + |rho - k|: V' jumps from 1 to 3 at rho = k, and w = 2 sqrt(3)
    # on both sides.  At k = 1, F jumps from -0.16 to +0.36 there: Brent ends on
    # the kink, which misses FRAME_TOL.  At k = 0.1 and 3 the root lies clear
    # of the kink
    text = "2*rho + ((rho - k)^2)^0.5"
    with pytest.raises(engine.FrequencyUndefinedError) as caught:
        solve(_bound(text, {"k": 1.0}), 0)
    assert str(caught.value) == (
        "no candidate expansion point solves the frame equation: the first, "
        "rho0 = 0.9999999999999998, leaves F(rho0) = -0.159, beyond the tolerance 1e-12")
    rows = [{"k": k} for k in (0.1, 1.0, 3.0, 0.9)]
    batch = solve_batch([_bound(text, row) for row in rows], 0)
    assert [_key(r) for r in batch] == [_key(_lone(text, row, 0)) for row in rows]
    assert [type(r).__name__ for r in batch] == ["tuple", "FrequencyUndefinedError"] * 2


def _grid_roots():
    """(k, c) where F of -c/rho at l = 0, sqrt(c rho / 2) - 1/2, is exactly 0.0
    at the grid point k: rho0 = 1 / (2c) is that point, with no bracket."""
    out = []
    for k in range(5, SCAN_POINTS - 5):
        c = 0.5 / _SCAN_GRID[k]
        if _frame(_bound("-c/rho", {"c": c}), float(_SCAN_GRID[k]), 0)[0] == 0.0:
            out.append((k, float(c)))
    return out


def test_a_root_on_the_scan_grid_is_the_frame_there(monkeypatch):
    lanes, run = [], brentq
    monkeypatch.setattr(engine, "brentq", lambda f, a, *rest: lanes.append(len(a))
                        or run(f, a, *rest))
    roots = _grid_roots()
    assert len(roots) > SCAN_POINTS // 2
    for k, c in roots[::20]:
        bound = _bound("-c/rho", {"c": c})
        rho0 = float(_SCAN_GRID[k])
        F, w, a = _frame(bound, rho0, 0)
        w, v0 = float(w), float(a[0])
        assert F == 0.0
        assert engine.solve_geometry([bound], 0) == [
            engine.Geometry(rho0=rho0, w=w, beta=-w / 4.0, lbar=w / 4.0, l=0, v0=v0)]
    assert lanes == []  # no bracket: each rho0 is the grid point itself
    # several grid roots, expanded as one array, and one bracketed root
    rows = [{"c": c} for _, c in roots[::40]] + [{"c": 0.3}]
    _assert_rows_equal_lone_solves("-c/rho", rows, 0)
    assert lanes[0] == 1


def test_a_real_power_of_a_parameter_column_equals_lone_solves():
    # b^1.5 over a column of b takes C pow per entry, as each lone float does;
    # numpy's vectorized power differs from it in the last bit on a few
    # percent of entries, so 100 rows would catch that power
    rng = random.Random(15)
    rows = [{"b": rng.uniform(0.05, 4.0)} for _ in range(100)]
    for m in (0, 2):
        _assert_rows_equal_lone_solves("b^1.5*rho - 2/rho", rows, m)


def test_rows_of_two_specs_are_rejected():
    rows = [bind_params(HYBRID, {"m": 0.0, "g": 1.0}), _bound("-2/rho")]
    with pytest.raises(ValueError, match="PotentialSpec"):
        solve_batch(rows, 0)
    assert solve_batch([], 0) == []
