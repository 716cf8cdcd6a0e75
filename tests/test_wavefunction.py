import math

import numpy as np
import pytest
from scipy.integrate import simpson

from pslet2d import wavefunction
from pslet2d.expressions import bind_params, parse_potential
from pslet2d.engine import SolverError, solve
from pslet2d.wavefunction import (
    GridError,
    assemble_exponent_blocks,
    synthesize_wavefunction,
)
from test_acceptance import overlap


def _bound(text, params=None):
    return bind_params(parse_potential(text), params or {})


def _solve_coulomb():
    return solve(_bound("-2/rho"), 0)


def _solve_oscillator():
    return solve(_bound("g^2*rho^2/4", {"g": 1.0}), 0)


def coulomb_exact_psi(rho):
    # normalized nodeless reduced wavefunction for V = -2/rho, m = 0
    return 4.0 * np.sqrt(rho) * np.exp(-2.0 * rho)


def oscillator_exact_psi(rho):
    # proportional to rho^(1/2) exp(-rho^2/4) for gamma = 1, m = 0
    return np.sqrt(rho) * np.exp(-(rho**2) / 4.0)


def test_coulomb_matches_closed_form():
    geom, table, _ = _solve_coulomb()
    grid = np.linspace(0.01, 5.0, 500)
    wf = synthesize_wavefunction(geom, table, grid)
    exact = coulomb_exact_psi(grid)
    rms = math.sqrt(float(np.mean((wf.psi - exact) ** 2)))
    assert rms <= 1e-4
    assert overlap(grid, wf.psi, exact) >= 0.999999


def test_coulomb_value_at_expansion_point():
    geom, table, _ = _solve_coulomb()
    grid = np.linspace(0.01, 5.0, 500)
    wf = synthesize_wavefunction(geom, table, grid)
    # 4 sqrt(1/4) e^{-1/2} = 2 e^{-1/2}
    psi_at_rho0 = wf.unnormalized(np.array([0.25]))[0] / wf.norm
    assert psi_at_rho0 == pytest.approx(2.0 * math.exp(-0.5), rel=1e-6)


def test_coulomb_log_series_pattern():
    # the lbar^(+1) block of the raw integrated series carries the alternating
    # coefficients (-1)^(k+1)/k of ln(1+y), verified for k = 2..8
    geom, table, _ = _solve_coulomb()
    _, blocks = assemble_exponent_blocks(geom, table)
    # after the closed-form log split the lbar^(+1) block must be exactly -y
    blk = blocks[-2]
    raw = blk.copy()
    for k in range(1, len(raw)):
        raw[k] += (-1.0) ** (k + 1) / k  # undo the subtraction
    for k in range(2, min(9, len(raw))):
        assert raw[k] == pytest.approx((-1.0) ** (k + 1) / k, abs=1e-10)
    assert blk[1] == pytest.approx(-1.0, abs=1e-12)
    assert np.max(np.abs(blk[2:])) < 1e-10


def test_oscillator_overlap_and_peak():
    geom, table, _ = _solve_oscillator()
    grid = np.linspace(0.01, 8.0, 1200)
    wf = synthesize_wavefunction(geom, table, grid)
    exact = oscillator_exact_psi(grid)
    assert overlap(grid, wf.psi, exact) >= 0.9999
    assert overlap(grid, wf.psi, exact) >= 1.0 - 1e-9  # pinned regression floor
    peak = grid[np.argmax(wf.psi)]
    assert peak == pytest.approx(1.0, abs=grid[1] - grid[0])


def test_positive_everywhere():
    geom, table, _ = _solve_coulomb()
    grid = np.linspace(0.001, 6.0, 800)
    wf = synthesize_wavefunction(geom, table, grid)
    assert np.all(wf.psi > 0.0)


def test_whole_line_normalization():
    geom, table, _ = _solve_coulomb()
    grid = np.linspace(0.01, 5.0, 500)
    wf = synthesize_wavefunction(geom, table, grid)
    dense = np.linspace(1e-8, 12.0, 60001)
    mass = float(simpson((wf.unnormalized(dense) / wf.norm) ** 2, x=dense))
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_radial_column_relation():
    geom, table, _ = _solve_coulomb()
    grid = np.linspace(0.05, 5.0, 200)
    wf = synthesize_wavefunction(geom, table, grid)
    assert wf.radial == pytest.approx(wf.psi / np.sqrt(grid), rel=1e-14)


def test_self_overlap_is_one():
    geom, table, _ = _solve_coulomb()
    grid = np.linspace(0.01, 5.0, 500)
    wf = synthesize_wavefunction(geom, table, grid)
    assert overlap(grid, wf.psi, wf.psi) == pytest.approx(1.0, abs=1e-14)


def test_grid_validation():
    geom, table, _ = _solve_coulomb()
    with pytest.raises(GridError):
        synthesize_wavefunction(geom, table, [1.0])
    with pytest.raises(GridError):
        synthesize_wavefunction(geom, table, [0.0, 1.0, 2.0])
    with pytest.raises(GridError):
        synthesize_wavefunction(geom, table, [1.0, 1.0, 2.0])
    with pytest.raises(GridError):
        synthesize_wavefunction(geom, table, [2.0, 1.0])
    with pytest.raises(GridError, match="strictly increasing"):
        synthesize_wavefunction(geom, table, [0.1, np.nan, 2.0])
    with pytest.raises(GridError, match="finite"):  # before numpy warns of an overflow
        synthesize_wavefunction(geom, table, [0.1, 1.0, np.inf])


def test_grid_must_cover_support():
    geom, table, _ = _solve_coulomb()
    with pytest.raises(GridError, match="support"):
        synthesize_wavefunction(geom, table, np.linspace(0.01, 0.5, 50))


def test_prefactor_exponent():
    for bound, m in [
        (_bound("-2/rho"), 0),
        (_bound("g^2*rho^2/4", {"g": 2.0}), 1),
        (_bound("m*g - 2/rho + g^2*rho^2/4", {"m": -1.0, "g": 1.0}), -1),
    ]:
        geom, table, _ = solve(bound, m)
        log_power, _ = assemble_exponent_blocks(geom, table)
        assert log_power == pytest.approx(abs(m) + 0.5, abs=1e-14)


def test_unnormalized_equals_the_horner_loop():
    # np.polyval does the loop's operations in the loop's order: equal bits
    bound = _bound("m*g - 2/rho + g^2*rho^2/4", {"m": -2.0, "g": 1.0})
    geom, table, _ = solve(bound, -2, max_order=6)
    grid = np.linspace(0.01, 30.0, 500)
    wf = synthesize_wavefunction(geom, table, grid)
    y = grid / geom.rho0 - 1.0
    expo = wf.log_power * np.log1p(y)
    for t, coeffs in wf.blocks.items():
        acc = np.zeros_like(y)
        for c in coeffs[::-1]:
            acc = acc * y + c
        expo = expo + geom.lbar ** (-t / 2.0) * acc
    assert np.array_equal(wf.unnormalized(grid), np.exp(expo))


@pytest.mark.parametrize("points", [3, 5, 101, 2001, 8001])
def test_simpson_equals_scipy_on_odd_grids(points):
    rng = np.random.default_rng(points)
    for uniform in (True, False):
        if uniform:
            x = np.linspace(rng.uniform(1e-9, 1.0), rng.uniform(2.0, 60.0), points)
        else:
            x = np.cumsum(rng.uniform(0.01, 1.0, points))
        y = np.exp(-x) * rng.uniform(0.5, 2.0, points)
        assert wavefunction.simpson(y, x) == simpson(y, x=x)


def test_simpson_rejects_an_even_count():
    x = np.linspace(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="odd"):
        wavefunction.simpson(x, x)


def test_a_wide_grid_leaves_the_normalization_as_it_is():
    # a normalization grid that starts at the user grid's end under-resolves
    # the mass on a wide grid: psi(rho0) is then off by 7e-3 at an end of
    # 2000 and by a factor 2.4e3 at 1e6
    geom, table, _ = _solve_coulomb()
    for end in (6.25, 2000.0, 1e6):
        wf = synthesize_wavefunction(geom, table, [geom.rho0, end])
        assert wf.psi[0] == pytest.approx(2.0 * math.exp(-0.5), rel=1e-9), end


def test_a_series_that_grows_again_inside_the_grid_is_an_error():
    # the density decays at rho_max ~ 5.8, but the order-3 series overflows
    # further out: a grid that reaches there is an error, not inf samples
    geom, table, _ = solve(_bound("rho^4/4 - 1/(2*rho)"), 1)
    synthesize_wavefunction(geom, table, np.linspace(0.01, 5.0, 50))
    with pytest.raises(SolverError, match="overflowed"):
        synthesize_wavefunction(geom, table, np.linspace(0.01, 30.0, 50))


@pytest.mark.parametrize("potential, g", [("-2/rho", None), ("g^2*rho^2/4", 0.5),
                                          ("g^2*rho^2/4", 1.0), ("g^2*rho^2/4", 2.5)])
def test_the_norm_holds_the_tail_beyond_the_last_stretch(potential, g):
    # the closed-form states of the bench's wavefunction workload, on grids to
    # 1x, 3x and 30x its ends; leaving the tail estimate out of the norm puts
    # psi off by up to 2.1e-9
    for m in range(-3, 4):
        l = abs(m)
        if g is None:  # E = -1/(l+1/2)^2, decay rate k = 1/(l+1/2)
            k = 1.0 / (l + 0.5)
            norm = math.sqrt((2.0 * k) ** (2 * l + 2) / math.gamma(2 * l + 2))
            exact = lambda r: norm * r ** (l + 0.5) * np.exp(-k * r)
            end = (l + 0.5) * (l + 12.5)
        else:  # E = g (l+1)
            norm = math.sqrt(2.0 / (math.gamma(l + 1) * (2.0 / g) ** (l + 1)))
            exact = lambda r: norm * r ** (l + 0.5) * np.exp(-g * r * r / 4.0)
            end = math.sqrt(2.0 * (2 * l + 31) / g)
        geom, table, _ = solve(_bound(potential, {"g": g} if g else {}), m)
        for reach in (1.0, 3.0, 30.0):
            grid = np.linspace(0.01, reach * end, 500)
            psi, ref = synthesize_wavefunction(geom, table, grid).psi, exact(grid)
            near = ref >= 1e-2 * ref.max()  # far out the truncated series itself departs
            assert np.max(np.abs(psi[near] / ref[near] - 1.0)) <= 1e-10, (m, reach)


def test_one_pass_samples_each_point_once(monkeypatch):
    calls = []
    unnormalized = wavefunction.WavefunctionSeries.unnormalized

    def spy(self, rho):
        calls.append(np.array(rho, dtype=float))
        return unnormalized(self, rho)

    monkeypatch.setattr(wavefunction.WavefunctionSeries, "unnormalized", spy)
    geom, table, _ = _solve_coulomb()
    grid = np.linspace(0.01, 5.0, 500)  # ends inside the stretch (4.096, 6.5536]
    synthesize_wavefunction(geom, table, grid)
    user = [c for c in calls if np.array_equal(c, grid)]
    assert len(user) == 1 and len(calls) == 1 + 6  # five stretches, the last split in two
    # no point is sampled twice, save the grid's end where it splits a stretch
    rho, counts = np.unique(np.concatenate(calls), return_counts=True)
    assert rho[counts > 1].tolist() == [grid[-1]] and counts.max() == 2
    # the 500 user points and six stretches of the node rule fit in 1,000 samples
    assert sum(map(len, calls)) <= 1000


def test_the_coverage_mass_is_taken_at_the_split_stretch():
    # Coulomb m = 0 holds (1 + 4R) e^(-4R) of its mass beyond R; R = 4.0 falls
    # inside the stretch (2.56, 4.096] and R = 4.3 inside (4.096, 6.5536]
    geom, table, _ = _solve_coulomb()
    with pytest.raises(GridError) as info:
        synthesize_wavefunction(geom, table, np.linspace(0.01, 4.0, 400))
    fraction = float(str(info.value).rsplit(" ", 1)[1])
    assert fraction == pytest.approx(17.0 * math.exp(-16.0), rel=1e-2)  # 1.9e-6
    synthesize_wavefunction(geom, table, np.linspace(0.01, 4.3, 400))


def _exact_log_psi(g, m):
    """ln psi of the closed-form nodeless state: Coulomb for g None, else the oscillator."""
    l = abs(m)
    if g is None:  # Coulomb: psi = N rho^(l+1/2) e^(-k rho), k = 1/(l+1/2)
        k = 1.0 / (l + 0.5)
        log_norm = 0.5 * ((2 * l + 2) * math.log(2.0 * k) - math.lgamma(2 * l + 2))
        return lambda r: log_norm + (l + 0.5) * np.log(r) - k * r
    # oscillator: psi = N rho^(l+1/2) e^(-g rho^2/4)
    log_norm = 0.5 * (math.log(2.0) - math.lgamma(l + 1) - (l + 1) * math.log(2.0 / g))
    return lambda r: log_norm + (l + 0.5) * np.log(r) - g * r * r / 4.0


@pytest.mark.parametrize("potential, g, m", [("g^2*rho^2/4", 2.5, 10), ("g^2*rho^2/4", 2.5, 30),
                                             ("g^2*rho^2/4", 2.5, 100), ("g^2*rho^2/4", 2.5, 200),
                                             ("g^2*rho^2/4", 2.5, 300), ("g^2*rho^2/4", 2.5, 1000),
                                             ("-2/rho", None, 10)])
def test_the_norm_holds_at_large_l(potential, g, m):
    # the peak narrows as rho0/sqrt(lbar w): 48 nodes a stretch put the norm
    # off by 1.2e-8 at m = 30 and by 9.9e-4 at m = 100; from m = 113 on the
    # first stretch needs more than 256 nodes, and 256 put the norm off by
    # 1.2e-8 at m = 1000, where three panels take it
    geom, table, _ = solve(_bound(potential, {"g": g} if g else {}), m)
    wf = synthesize_wavefunction(geom, table, [geom.rho0, 3.0 * geom.rho0])
    exact = math.exp(_exact_log_psi(g, m)(geom.rho0))
    assert wf.psi[0] == pytest.approx(exact, rel=1e-12)


def test_a_high_order_norm_needs_no_more_nodes(monkeypatch):
    # K = 12: an exponent of degree 26 asks for 601 nodes on the first
    # stretch, taken as three panels; four times the nodes moves the norm by
    # no more than rounding
    g = 1.3542551618871583
    geom, table, _ = solve(_bound("m*g - 2/rho + g^2*rho^2/4", {"m": 3.0, "g": g}), 3, max_order=12)
    grid = np.linspace(0.01 * geom.rho0, 8.0 * geom.rho0, 200)
    norm = synthesize_wavefunction(geom, table, grid).norm
    monkeypatch.setattr(wavefunction, "NODES_PER_WIDTH", 4 * wavefunction.NODES_PER_WIDTH)
    assert synthesize_wavefunction(geom, table, grid).norm == pytest.approx(norm, rel=1e-13)


@pytest.mark.parametrize("m", [-3, -2, -1, 0, 1, 2, 3])
def test_log_series_noise_leaves_the_far_coulomb_tail_exact(m):
    # on a grid to 30x the bench's end, y^3..y^8 noise of 1.7e-16 left in the
    # lbar^(+1) block at m = +-2 put ln psi off by 1.4e-7 at rho = 89 and by
    # 3.5e-2 at rho = 400, and made psi 0 beyond rho ~ 1223
    l = abs(m)
    geom, table, _ = solve(_bound("-2/rho"), m)
    grid = np.linspace(0.01, 30.0 * (l + 0.5) * (l + 12.5), 500)
    psi = synthesize_wavefunction(geom, table, grid).psi
    assert np.all(psi > 0.0)
    assert np.max(np.abs(np.log(psi) - _exact_log_psi(None, m)(grid))) <= 1e-10


def test_exponent_blocks_equal_the_coefficient_loop():
    # the scatter gives each block entry its one term, as a loop over W_s does;
    # only a log-subtracted block that is linear but for rounding noise changes
    hybrid = ("m*g - 2/rho + g^2*rho^2/4", {"m": 0.0, "g": 1.3542551618871583}, 0, 6)
    for text, params, m, order in [("-2/rho", {}, 2, 3), ("g^2*rho^2/4", {"g": 1.5}, -1, 6), hybrid]:
        geom, table, _ = solve(_bound(text, params), m, max_order=order)
        S = len(table.W) - 1
        loop = {t: np.zeros(S - t + 1) for t in range(-2, S)}
        for s in range(S + 1):
            for k, c in enumerate(table.W[s] / np.arange(1, len(table.W[s]) + 1), start=1):
                loop[s - k][k] += c
        for t, coef in ((-2, 1.0), (0, geom.beta + 0.5)):
            for k in range(1, len(loop[t])):
                loop[t][k] -= coef * (-1.0) ** (k + 1) / k
        if text == "-2/rho":  # exactly -y, but for noise of up to 1.7e-16 in y^3..y^8
            assert 0.0 < np.max(np.abs(loop[-2][2:])) < 1e-15
            loop[-2][2:] = 0.0
        _, blocks = assemble_exponent_blocks(geom, table)
        kept = {t: b for t, b in loop.items() if np.max(np.abs(b)) > 1e-13}
        assert blocks.keys() == kept.keys()
        assert all(np.array_equal(blocks[t], kept[t]) for t in kept)


def test_a_noise_term_of_a_polynomial_block_is_kept():
    # the hybrid's y^14 term at lbar^(+1), -5.6e-17, is within 4 ulps of the log
    # term it was left from; made 0, the series grows again beyond 26 rho0 and a
    # grid to 30 rho0 put the norm at 1.1e7, with psi 1e-7 of its value at rho0
    g = 1.3542551618871583
    geom, table, _ = solve(_bound("m*g - 2/rho + g^2*rho^2/4", {"m": 0.0, "g": g}), 0, max_order=6)
    grid = np.linspace(0.01 * geom.rho0, 30.0 * geom.rho0, 200)
    assert synthesize_wavefunction(geom, table, grid).norm == pytest.approx(0.80669031073, rel=1e-9)
    with pytest.raises(GridError, match="9.05e-04"):
        synthesize_wavefunction(geom, table, np.linspace(0.01 * geom.rho0, 8.0 * geom.rho0, 200))
