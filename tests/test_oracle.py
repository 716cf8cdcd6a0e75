import re

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
from pslet2d.oracle import _meshes, _shift_invert

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
        abs(oracle.eigvalsh_tridiagonal(*_meshes(bound, 1, 20.0, (n,))[0][:2]) - exact)
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

    def spy(diag, off, lam, x, delta, sums):
        result = _shift_invert(diag, off, lam, x, delta, sums)
        solved.append((diag, off, result))
        return result

    monkeypatch.setattr(oracle, "_shift_invert", spy)
    fd_ground_energy(_bound(text, params), l, 20.0, 400)
    assert [len(diag) for diag, _, _ in solved] == [400, 800, 1600]
    for diag, off, (lam, vector) in solved:
        assert vector is not None  # certified, no fallback
        assert abs(LD(lam) - _lowest_long_double(diag, off, lam)) <= 1e-11


def test_an_iterate_that_underflows_hands_its_mesh_to_bisection(monkeypatch):
    # the sweep's mesh of g rho^150 - 2/rho at g = 1: on 1000 cells y @ y
    # underflows to 0 and the iterate turns NaN, which dpttrf factors with
    # info = 0, so a NaN lambda used to pass the certificate
    solved = []

    def spy(*args):
        result = _shift_invert(*args)
        solved.append((args[0], args[1], result))
        return result

    monkeypatch.setattr(oracle, "_shift_invert", spy)
    energy, error = fd_ground_energy(_bound("g*rho^150 - 2/rho", {"g": 1.0}), 0, 20.0, 500)
    assert np.isfinite(energy) and not np.isnan(error)
    diag, off, (lam, vector) = solved[1]
    assert vector is None and lam == oracle.eigvalsh_tridiagonal(diag, off)


def test_certificate_refuses_all_but_the_lowest_eigenvalue(monkeypatch):
    diag, off, delta, sums = _meshes(_bound("-2/rho"), 0, 20.0, (400,))[0]
    lam1 = oracle.eigvalsh_tridiagonal(diag, off)
    lam2 = eigvalsh_tridiagonal(diag, off, select="i", select_range=(1, 1))[0]
    # seeded next to lambda_2 the iteration converges there; its eigenvector
    # has a node, so bisection takes over and lambda_1 comes back
    lam, vector = _shift_invert(diag, off, lam2 + 1e-3, np.ones(400), delta, sums)
    assert vector is None
    assert lam == lam1

    lam, vector = _shift_invert(diag, off, lam1 + 1e-3, np.ones(400), delta, sums)
    assert vector is not None and abs(lam - lam1) <= 1e-10
    # a failed factorization of T - (lambda - delta) I also hands over to bisection
    monkeypatch.setattr(oracle, "dpttrf", lambda d, e: (d, e, 1))
    assert _shift_invert(diag, off, lam1 + 1e-3, np.ones(400), delta, sums) == (lam1, None)


def test_a_singular_shift_hands_over_to_bisection(monkeypatch):
    # dgtsv reporting T - lambda I singular (info > 0) ends the iteration:
    # bisection gives each mesh's lambda and no eigenvector, so no wall term
    bound = _bound("rho^2 - 2/rho")
    dgtsv = oracle.dgtsv
    monkeypatch.setattr(oracle, "dgtsv", lambda *a: dgtsv(*a)[:4] + (1,))
    diag, off, delta, sums = _meshes(bound, 0, 10.0, (200,))[0]
    lam = oracle.eigvalsh_tridiagonal(diag, off)
    assert _shift_invert(diag, off, -3.6, np.ones(200), delta, sums) == (lam, None)
    e1, e2, e4 = (oracle.eigvalsh_tridiagonal(*mesh[:2])
                  for mesh in _meshes(bound, 0, 10.0, (200, 400, 800)))
    assert fd_ground_energy(bound, 0, 10.0, 200) == ((64.0 * e4 - 20.0 * e2 + e1) / 45.0, np.inf)


def test_a_potential_constant_on_the_mesh_gives_the_spread_constant():
    # rho^0 evaluates to one float, 0*rho + 1 to an array over the cells;
    # the diagonal broadcasts the float to the same bits
    constant, spread = _bound("rho^0"), _bound("0*rho + 1")
    assert np.ndim(constant(np.ones(3))) == 0 and np.ndim(spread(np.ones(3))) == 1
    assert fd_ground_energy(constant, 1, 3.0, 200) == fd_ground_energy(spread, 1, 3.0, 200)


@pytest.mark.parametrize("pole, mesh", [(3 / 32, 256), (3 / 64, 512), (3 / 128, 1024)])
def test_a_pole_on_a_cell_center_of_any_mesh_raises(pole, mesh):
    # with h = 1/16, 1/32 and 1/64 the cell centers are odd multiples of h/2,
    # so each pole sits on a center of exactly one of the three meshes
    bound = _bound(f"-2/rho + 1e-9/(rho - {pole!r})")
    hits = []
    for n in (256, 512, 1024):
        try:
            _meshes(bound, 0, 16.0, (n,))
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

    def spy(diag, off, lam, x, delta, sums):
        assert delta == _delta(diag, off)  # the delta of the mesh it certifies
        result = _shift_invert(diag, off, lam, x, delta, sums)
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
        exact = oracle.eigvalsh_tridiagonal(diag, off)
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


def _reference_matrix(bound, l, rho_max, n_cells):
    """One mesh's matrix built on its own with its scalar h: the one-pass build's reference."""
    h = rho_max / n_cells
    centers = (np.arange(1, n_cells + 1) - 0.5) * h
    faces = np.arange(n_cells + 1) * h
    v = np.asarray(bound(centers), dtype=float)
    diag = (faces[:-1] + faces[1:]) / h**2 / centers + (l * l) / centers**2 + v
    off = -faces[1:-1] / h**2 / np.sqrt(centers[:-1] * centers[1:])
    return diag, off


def _reference_lowest(diag, off, tol=0.0):
    return float(eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0), tol=tol)[0])


def _reference_sums(diag, off):
    """One mesh's row sums d_i + e_i + e_(i-1), with the first sum's rounding error added back."""
    first = diag.copy()
    first[:-1] += off
    back = first - diag
    error = diag - (first - back)
    error[:-1] += off - back[:-1]
    sums = first
    sums[1:] += off
    sums += error
    return sums


def _reference_shift_invert(diag, off, lam, x, delta, _sums):
    """The Rayleigh-quotient iteration with numpy's norm, diff and copysign; it
    builds each mesh's row sums itself and ignores the one-pass ones it is given."""
    eps = np.finfo(float).eps
    sums = _reference_sums(diag, off)
    for _ in range(oracle.MAX_SHIFTS):
        y, info = oracle.dgtsv(off, diag - lam, off, x)[3:]
        if info:
            break
        x = y / np.copysign(np.linalg.norm(y), y.sum())
        flux = off * np.diff(x)
        r = (sums - lam) * x
        r[:-1] += flux
        r[1:] -= flux
        step = float(x @ r)
        lam += step
        if x.min() >= -eps * x.max() and oracle.dpttrf(diag - (lam - delta), off)[2] == 0:
            return lam, x
        if abs(step) <= delta:
            break
    return _reference_lowest(diag, off), None


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _bits_corpus():
    rng = np.random.default_rng(1999)
    for _ in range(48):
        a, b, c = rng.uniform(0.1, 2.0), rng.uniform(0.5, 3.0), rng.uniform(0.0, 1.0)
        p, q = rng.choice([0.5, 0.7, 1.5, 2.0]), rng.choice([0.5, 0.7, 1.0, 1.5])
        text = f"{a!r}*rho^{p} - {b!r}/rho^{q} + {c!r}*rho^{rng.choice([0.5, 0.7, 1.5])}"
        yield (text, int(rng.integers(0, 4)), float(rng.choice([10.0, 20.0, 30.0])),
               int(rng.choice([200, 500, 1000])))
    for l, rho_max, points in ((0, 10.0, 200), (1, 20.0, 500), (3, 30.0, 1000)):
        yield "rho^0", l, rho_max, points  # V is one float, not an array


def test_one_pass_meshes_equal_per_mesh_matrices_bit_for_bit():
    for text, l, rho_max, points in _bits_corpus():
        bound = _bound(text)
        sizes = (points, 2 * points, 4 * points)
        for (diag, off, delta, sums), n in zip(oracle._meshes(bound, l, rho_max, sizes), sizes):
            ref_diag, ref_off = _reference_matrix(bound, l, rho_max, n)
            assert _same_bits(diag, ref_diag) and _same_bits(off, ref_off), (text, l, n)
            # the one pass also builds each mesh's delta and row sums
            assert delta == _delta(ref_diag, ref_off), (text, l, n)
            assert _same_bits(sums, _reference_sums(ref_diag, ref_off)), (text, l, n)
        diag, off, delta, sums = _meshes(bound, l, rho_max, (points,))[0]
        ref_diag, ref_off = _reference_matrix(bound, l, rho_max, points)
        assert _same_bits(diag, ref_diag) and _same_bits(off, ref_off)
        assert delta == _delta(ref_diag, ref_off)
        assert _same_bits(sums, _reference_sums(ref_diag, ref_off))


def test_fd_energy_equals_the_per_mesh_scipy_oracle_bit_for_bit(monkeypatch):
    # the reference runs the oracle with each mesh built on its own, scipy's
    # eigvalsh_tridiagonal for the seed and the fallback, and numpy's norm and
    # diff in the Rayleigh step
    corpus = list(_bits_corpus())
    results = [fd_ground_energy(_bound(text), l, rho_max, points)
               for text, l, rho_max, points in corpus]
    monkeypatch.setattr(oracle, "_meshes", lambda bound, l, rho_max, sizes: [
        (diag, off, _delta(diag, off), None)
        for diag, off in (_reference_matrix(bound, l, rho_max, n) for n in sizes)])
    monkeypatch.setattr(oracle, "eigvalsh_tridiagonal", _reference_lowest)
    monkeypatch.setattr(oracle, "_shift_invert", _reference_shift_invert)
    for (text, l, rho_max, points), result in zip(corpus, results):
        reference = fd_ground_energy(_bound(text), l, rho_max, points)
        assert result == reference, (text, l, rho_max, points)
        assert all(type(x) is float for x in result)


def test_the_lowest_eigenvalue_equals_scipys_bisection():
    for text, l, rho_max, points in list(_bits_corpus())[:12]:
        diag, off, _, _ = _meshes(_bound(text), l, rho_max, (points,))[0]
        for tol in (0.0, oracle.SEED_TOL):
            assert oracle.eigvalsh_tridiagonal(diag, off, tol) == _reference_lowest(diag, off, tol)


LAPACK_BITS = """
import hashlib, sys
import numpy as np
from pslet2d import oracle
from pslet2d.expressions import bind_params, parse_potential
{lapack}
digest = hashlib.sha256()
for text, params, l in {matrices!r}:
    diag, off, _, _ = oracle._meshes(bind_params(parse_potential(text), params), l, 20.0, (500,))[0]
    w = lapack.dstebz(diag, off, 2, 0.0, 1.0, 1, 1, 0.0, "E")
    shifted = diag - (w[1][0] - 1e-3)
    for result in (w, lapack.dgtsv(off, shifted, off, np.ones(len(diag))), lapack.dpttrf(shifted, off)):
        for part in result:
            digest.update(np.asarray(part).tobytes())
print(digest.hexdigest(), "scipy.linalg" in sys.modules)
"""


def test_the_loaded_lapack_equals_scipy_linalg_lapack_bit_for_bit():
    from test_cli import _fresh_interpreter

    matrices = [("-2/rho", {}, 0), (HYBRID, {"m": -1.0, "g": 1.0}, 1),
                ("rho^2 - 2/rho^0.5", {}, 0), ("g^2*rho^2/4", {"g": 3.0}, 2)]
    loaded, reference = (_fresh_interpreter(LAPACK_BITS.format(lapack=lapack, matrices=matrices),
                                            "-W", "error").stdout.split()
                         for lapack in ("lapack = oracle._flapack()",
                                        "import scipy.linalg.lapack as lapack"))
    assert loaded[1] == "False" and reference[1] == "True"
    assert loaded[0] == reference[0]


@pytest.mark.parametrize("rho_max", [1e-160, 1e300])
def test_a_mesh_floats_cannot_hold_is_refused_before_lapack(monkeypatch, rho_max):
    # 1e-160 / 500 squares to 0, so 1/h^2 is infinite; (1e300 / 500)^2 overflows
    def lapack(*args):
        raise AssertionError("LAPACK called on a matrix floats cannot hold")

    for name in ("eigvalsh_tridiagonal", "dgtsv", "dpttrf"):
        monkeypatch.setattr(oracle, name, lapack)
    message = rf"rho_max = {re.escape(repr(rho_max))} on 500 cells .* float range"
    with pytest.raises(ValueError, match=message):
        fd_ground_energy(_bound("-2/rho"), 0, rho_max, 500)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: an h^2 and an h^1.5 term mix and the "
                   "mesh ratio passes through 4")
def test_the_error_bar_covers_a_mixed_order_l0_state():
    # rho0/h = 2.5: errs by 8.5e-3 against a bar of 9.2e-4
    bound = _bound("g*rho^2 - 2/rho^0.5", {"g": 1e4})
    e, err = fd_ground_energy(bound, 0, 20.0, 500)
    ref, ref_err = fd_ground_energy(bound, 0, 20.0, 16000)
    assert abs(e - ref) <= err + ref_err


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP items 4 and 10: the frame at rho0 = 0.25 sees only Coulomb, "
                   "not the wall near rho = 1")
@pytest.mark.parametrize("g, fd", [(1.0, -2.9637916039), (2.0, -2.9449407917)])
def test_the_expansion_sees_a_steep_wall(g, fd):
    # EN3 = -3.9999999999999964 at both g, and compute prints -4.000000000 with
    # exit 0; fd is the oracle on (0, 1.1] with 500 cells, bars 5.5e-9 and 6.1e-9
    bound = _bound("g*rho^150 - 2/rho", {"g": g})
    assert fd_ground_energy(bound, 0, 1.1, 500)[0] == pytest.approx(fd, abs=1e-9)
    with pytest.warns(UserWarning, match="3 stable frames"):
        _, _, breakdown = solve(bound, 0)
    assert abs(breakdown.partial_sums[3] - fd) < 0.05


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: a near-zero h^4 coefficient hides the "
                   "h^6 term from |R3 - R2|")
def test_the_error_bar_covers_a_vanishing_h4_term():
    # errs by 2.1e-9 against a bar of 4.4e-10
    bound = _bound("0.47690740887060123*rho^3.0 - 2.6595756112567366/rho^1.5"
                   " + 0.7687165031643948*rho")
    e, err = fd_ground_energy(bound, 2, 30.0, 500)
    ref, ref_err = fd_ground_energy(bound, 2, 30.0, 2000)
    assert abs(e - ref) <= err + ref_err
