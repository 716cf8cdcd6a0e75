import pytest

from pslet2d.expressions import bind_params, parse_potential
from pslet2d.oracle import (
    coulomb_exact,
    fd_ground_energy,
    oscillator_exact,
)
from pslet2d.oracle import _lowest_eigenvalue


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


def test_fd_reproduces_coulomb():
    bound = _bound("-2/rho")
    for m in (0, 1, 2):
        e = fd_ground_energy(bound, abs(m), 20.0, 4000)
        assert abs(e - coulomb_exact(m)) <= 1e-3


def test_fd_reproduces_oscillator():
    for gamma in (0.5, 2.0):
        bound = _bound("g^2*rho^2/4", {"g": gamma})
        for m in (0, 1, 2):
            e = fd_ground_energy(bound, abs(m), 20.0, 4000)
            assert abs(e - oscillator_exact(m, gamma)) <= 1e-3


def test_fd_coulomb_ground_state_high_accuracy():
    # the l = 0 case exercises the regular-at-origin discretization
    bound = _bound("-2/rho")
    e = fd_ground_energy(bound, 0, 30.0, 6000)
    assert e == pytest.approx(-4.0, abs=2e-6)


def test_grid_halving_second_order():
    # the raw (non-extrapolated) scheme converges at ~h^2
    bound = _bound("g^2*rho^2/4", {"g": 1.0})
    exact = oscillator_exact(1, 1.0)
    errs = [
        abs(_lowest_eigenvalue(bound, 1, 20.0, n) - exact)
        for n in (500, 1000, 2000)
    ]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.25)


def test_hybrid_reference_value():
    bound = _bound("m*g - 2/rho + g^2*rho^2/4", {"m": 0.0, "g": 1.0})
    e = fd_ground_energy(bound, 0, 20.0, 4000)
    assert e == pytest.approx(-3.9105, abs=2e-3)
