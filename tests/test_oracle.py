import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from pslet2d import cli, oracle
from pslet2d.engine import solve
from pslet2d.expressions import PotentialEvalError, bind_params, parse_potential
from pslet2d.oracle import (
    coulomb_exact,
    fd_ground_energy,
    oscillator_exact,
)
from pslet2d.oracle import _bisect, _matrix, _shift_invert

HYBRID = "m*g - 2/rho + g^2*rho^2/4"
LD = np.longdouble


def _bound(text, params=None):
    return bind_params(parse_potential(text), params or {})


def test_coulomb_exact_values():
    assert coulomb_exact(0) == pytest.approx(-4.0)
    assert coulomb_exact(1) == pytest.approx(-4.0 / 9.0)
    assert coulomb_exact(-1) == pytest.approx(-4.0 / 9.0)
    assert coulomb_exact(-2) == pytest.approx(-4.0 / 25.0)


def test_oscillator_exact_values():
    assert oscillator_exact(0, 1.0) == pytest.approx(1.0)
    assert oscillator_exact(2, 3.0) == pytest.approx(9.0)
    assert oscillator_exact(-1, 0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        oscillator_exact(0, 0.0)
    with pytest.raises(ValueError):
        oscillator_exact(0, -1.0)


def test_fdgrid_invariants():
    bound = _bound("-2/rho")
    with pytest.raises(ValueError):
        fd_ground_energy(bound, 0, 20.0, 100)
    with pytest.raises(ValueError):
        fd_ground_energy(bound, 0, 0.0, 500)
    with pytest.raises(ValueError):
        fd_ground_energy(bound, 0, -2.0, 500)
    with pytest.raises(ValueError, match="rho_max must be positive and finite, got inf"):
        fd_ground_energy(bound, 0, np.inf, 400)  # not scipy's complaint about the matrix


def test_fd_reproduces_coulomb():
    bound = _bound("-2/rho")
    for m in (0, 1, 2):
        e, _ = fd_ground_energy(bound, abs(m), 20.0, 4000)
        assert abs(e - coulomb_exact(m)) <= 1e-3


def test_fd_reproduces_oscillator():
    for gamma in (0.5, 2.0):
        bound = _bound("g^2*rho^2/4", {"g": gamma})
        for m in (0, 1, 2):
            e, _ = fd_ground_energy(bound, abs(m), 20.0, 4000)
            assert abs(e - oscillator_exact(m, gamma)) <= 1e-3


def test_fd_coulomb_ground_state_high_accuracy():
    # the l = 0 case exercises the regular-at-origin discretization
    bound = _bound("-2/rho")
    e, _ = fd_ground_energy(bound, 0, 30.0, 6000)
    assert e == pytest.approx(-4.0, abs=2e-6)


def test_grid_halving_second_order():
    # the raw (non-extrapolated) scheme converges at ~h^2
    bound = _bound("g^2*rho^2/4", {"g": 1.0})
    exact = oscillator_exact(1, 1.0)
    errs = [
        abs(_bisect(*_matrix(bound, 1, 20.0, n)) - exact)
        for n in (500, 1000, 2000)
    ]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.25)


def test_hybrid_reference_value():
    bound = _bound("m*g - 2/rho + g^2*rho^2/4", {"m": 0.0, "g": 1.0})
    e, _ = fd_ground_energy(bound, 0, 20.0, 4000)
    assert e == pytest.approx(-3.9105, abs=2e-3)


def _sturm_counts(d, e2, shifts):
    """How many eigenvalues of T lie below each shift, counted in long double."""
    q = d[0] - shifts
    count = (q < 0).astype(int)
    for i in range(1, len(d)):
        q = d[i] - shifts - e2[i - 1] / np.where(q == 0, np.finfo(LD).tiny, q)
        count += q < 0
    return count


def _lowest_long_double(diag, off, guess, width=1e-9):
    """The lowest eigenvalue of the float matrix, bracketed to a few long-double ulps."""
    d, e2 = diag.astype(LD), off.astype(LD) ** 2
    lo, hi = LD(guess) - LD(width), LD(guess) + LD(width)
    assert list(_sturm_counts(d, e2, np.array([lo, hi]))) == [0, 1]
    while hi - lo > 4 * np.finfo(LD).eps * abs(hi):
        shifts = lo + (hi - lo) * np.arange(1, 64, dtype=LD) / 64
        above = _sturm_counts(d, e2, shifts) > 0
        lo = shifts[~above].max(initial=lo)
        hi = shifts[above].min(initial=hi)
    return (lo + hi) / 2


@pytest.mark.parametrize(
    "text, params, l",
    [
        ("-2/rho", {}, 0),
        ("g^2*rho^2/4", {"g": 1.0}, 1),
        (HYBRID, {"m": 0.0, "g": 1.0}, 0),
        (HYBRID, {"m": -2.0, "g": 1.0}, 2),
    ],
)
def test_eigenvalues_match_long_double_bisection(monkeypatch, text, params, l):
    solved = []

    def spy(diag, off, lam, x, delta):
        result = _shift_invert(diag, off, lam, x, delta)
        solved.append((diag, off, result))
        return result

    monkeypatch.setattr(oracle, "_shift_invert", spy)
    fd_ground_energy(_bound(text, params), l, 20.0, 400)
    assert [len(diag) for diag, _, _ in solved] == [400, 800, 1600]
    for diag, off, (lam, vector) in solved:
        assert vector is not None  # certified, no fallback
        assert abs(LD(lam) - _lowest_long_double(diag, off, lam)) <= 1e-11


def test_certificate_refuses_all_but_the_lowest_eigenvalue(monkeypatch):
    diag, off = _matrix(_bound("-2/rho"), 0, 20.0, 400)
    lam1 = oracle._bisect(diag, off)
    lam2 = eigvalsh_tridiagonal(diag, off, select="i", select_range=(1, 1))[0]
    # seeded next to lambda_2 the iteration converges there; its eigenvector
    # has a node, so bisection takes over and lambda_1 comes back
    delta = oracle._delta(diag, off)
    lam, vector = _shift_invert(diag, off, lam2 + 1e-3, np.ones(400), delta)
    assert vector is None
    assert lam == lam1

    lam, vector = _shift_invert(diag, off, lam1 + 1e-3, np.ones(400), delta)
    assert vector is not None and abs(lam - lam1) <= 1e-10
    # a failed factorization of T - (lambda - delta) I also hands over to bisection
    monkeypatch.setattr(oracle, "dpttrf", lambda d, e: (d, e, 1))
    assert _shift_invert(diag, off, lam1 + 1e-3, np.ones(400), delta) == (lam1, None)


@pytest.mark.parametrize("pole, mesh", [(3 / 32, 256), (3 / 64, 512), (3 / 128, 1024)])
def test_a_pole_on_a_cell_center_of_any_mesh_raises(pole, mesh):
    # with h = 1/16, 1/32 and 1/64 the cell centers are odd multiples of h/2,
    # so each pole sits on a center of exactly one of the three meshes
    bound = _bound(f"-2/rho + 1e-9/(rho - {pole!r})")
    hits = []
    for n in (256, 512, 1024):
        try:
            _matrix(bound, 0, 16.0, n)
        except PotentialEvalError:
            hits.append(n)
    assert hits == [mesh]
    with pytest.raises(PotentialEvalError):
        fd_ground_energy(bound, 0, 16.0, 256)


def _delta(diag, off):
    """Bisection's tolerance on T: ulp times its 1-norm."""
    row = np.abs(diag)
    row[:-1] += np.abs(off)
    row[1:] += np.abs(off)
    return np.finfo(float).eps * row.max()


def test_certificate_contract_on_a_seeded_corpus(monkeypatch):
    # a certified lambda may stop short of convergence, but not by more than
    # the certificate's delta; a fallback is bisection's value itself
    solved = []

    def spy(diag, off, lam, x, delta):
        assert delta == _delta(diag, off)  # the delta of the mesh it certifies
        result = _shift_invert(diag, off, lam, x, delta)
        solved.append((diag, off, result))
        return result

    monkeypatch.setattr(oracle, "_shift_invert", spy)
    rng = np.random.default_rng(2024)
    for _ in range(100):
        a, b, c = rng.uniform(0.1, 2.0), rng.uniform(0.5, 3.0), rng.uniform(0.0, 1.0)
        p, q = rng.choice([1, 1.5, 2, 3, 4]), rng.choice([0.5, 1, 1.5])
        l, rho_max = int(rng.integers(0, 4)), float(rng.choice([10.0, 20.0, 30.0]))
        fd_ground_energy(_bound(f"{a!r}*rho^{p} - {b!r}/rho^{q} + {c!r}*rho"), l, rho_max, 4000)
    fallbacks = 0
    for diag, off, (lam, vector) in solved:
        exact = _bisect(diag, off)
        if vector is None:
            fallbacks += 1
            assert lam == exact
        else:
            assert abs(lam - exact) <= 2 * _delta(diag, off)
    assert len(solved) == 300
    # each base mesh is bisected on itself, so even the singular potentials
    # (l = 0, q = 1.5) no longer start from a seed too weakly bound for the
    # certificate; test_certificate_refuses_all_but_the_lowest_eigenvalue
    # exercises the fallback
    assert fallbacks == 0


def test_lapack_budget_on_the_published_sweep(monkeypatch):
    # the hybrid at every published compactified field, as the sweep's oracle
    # column solves it: three meshes, each seeded by the one below it
    sizes = []
    dgtsv = oracle.dgtsv
    monkeypatch.setattr(oracle, "dgtsv", lambda *a: sizes.append(len(a[1])) or dgtsv(*a))
    spec = parse_potential(HYBRID)
    n = cli.ORACLE_CELLS
    work, finest_solves = 0, []
    for m in (0, -1, -2):
        for g_prime in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
            bound = bind_params(spec, {"m": float(m), "g": g_prime / (1.0 - g_prime)})
            geom, _, _ = solve(bound, m, 3)
            sizes.clear()
            fd_ground_energy(bound, geom.l, max(20.0, 8.0 * geom.rho0), n)
            assert set(sizes) == {n, 2 * n, 4 * n}
            finest_solves.append(sizes.count(4 * n))
            work += sum(sizes)
    # cells times dgtsv solves: 512,000 when 4000 and 8000 cells were extrapolated
    assert work <= 125_000
    assert max(finest_solves) <= 2


@pytest.mark.parametrize("m", range(4))
def test_the_error_bar_covers_the_exact_energies(m):
    # Coulomb and the oscillator on the sweep's own mesh and rho_max
    for text, params, exact in (("-2/rho", {}, coulomb_exact(m)),
                                ("g^2*rho^2/4", {"g": 2.0}, oscillator_exact(m, 2.0))):
        bound = _bound(text, params)
        geom, _, _ = solve(bound, m, 3)
        e, err = fd_ground_energy(bound, m, max(20.0, 8.0 * geom.rho0), cli.ORACLE_CELLS)
        assert abs(e - exact) <= err <= 1e-5


@pytest.mark.parametrize("m, rho_max, deviation", [(1, 20.0, 1.3e-8), (2, 30.0, 1.2e-6)])
def test_the_error_bar_covers_a_near_wall(m, rho_max, deviation):
    # the wall raises the energy by far more than the extrapolation's error:
    # without its wall term the bar would be 1.6e-9 and 1.1e-9
    e, err = fd_ground_energy(_bound("-2/rho"), m, rho_max, cli.ORACLE_CELLS)
    assert e - coulomb_exact(m) == pytest.approx(deviation, rel=0.05)
    assert e - coulomb_exact(m) <= err <= 4 * deviation


def test_the_error_bar_widens_where_the_meshes_do_not_converge_as_h2():
    # at l = 0, -2/rho^0.5 converges as h^1.5: (E2 - E1)/(E4 - E2) = 2.85, and
    # the bar takes E4's own error, since 4 |R3 - R2| (8e-5) misses the 1.5e-4
    bound = _bound("rho^2 - 2/rho^0.5")
    e, err = fd_ground_energy(bound, 0, 20.0, 500)
    ref, ref_err = fd_ground_energy(bound, 0, 20.0, 16000)
    assert 1e-4 < abs(e - ref) <= err - ref_err
    # -2/rho^1.5 shows no convergence on these meshes, so no bar is given
    assert fd_ground_energy(_bound("rho^2 - 2/rho^1.5"), 0, 20.0, 500)[1] == np.inf
