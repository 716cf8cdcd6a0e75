"""Taut's quasi-exact states: an exact reference for a series that does not terminate.

V = 2/rho + gamma^2 rho^2 / 4 (the hybrid with the Coulomb sign flipped: the
relative motion of two electrons in a 2D parabolic dot) has closed-form
nodeless states u = rho^s e^(-gamma rho^2 / 4) P_n(rho), s = l + 1/2, at
special gamma, with E = gamma (l + 1 + n).  P_n's coefficients follow

    (j + 2)(j + 1 + 2s) a_(j+2) = 2 a_(j+1) + gamma (j - n) a_j,   a_0 = 1, a_1 = 1/s,

and gamma is a root of a_(n+1)(gamma) = 0.  The first family, n = 1, has
gamma = 2/s, P_1 = 1 + rho/s and E = gamma (l + 2).  Unlike Coulomb's and
the oscillator's, the expansion's series does not terminate here.

M. Taut, Phys. Rev. A 48, 3561 (1993); A. Turbiner, Phys. Rev. A 50, 5335 (1994).
"""

from fractions import Fraction

import numpy as np
import pytest

from pslet2d.engine import solve
from pslet2d.expressions import bind_params, parse_potential
from pslet2d.oracle import fd_ground_energy
from pslet2d.wavefunction import synthesize_wavefunction
from test_acceptance import overlap

TAUT = parse_potential("2/rho + g^2*rho^2/4")
ORDERS = (3, 6, 10, 15)
# |EN_K - E| at K = 3, 6, 10, 15, as measured (float gamma), rounded up in the
# third digit.  At l = 0, K = 15 is worse than K = 10: the series diverges
# there or the hierarchy's rounding grows (ROADMAP item 3 tells which), so
# no monotone improvement is asserted.
PARTIAL_SUM_ERRORS = {
    0: (8.39e-2, 8.06e-3, 1.40e-4, 5.72e-4),
    1: (1.34e-3, 2.42e-5, 1.42e-7, 7.66e-8),
    2: (1.12e-4, 6.64e-7, 2.06e-9, 2.25e-10),
}


def _state(l):
    """(gamma, E, u) of the n = 1 state at l, u unnormalized."""
    s = l + 0.5
    gamma = 2.0 / s
    return gamma, gamma * (l + 2), lambda rho: rho**s * np.exp(-gamma * rho**2 / 4) * (1 + rho / s)


@pytest.mark.parametrize("l", [0, 1, 2])
def test_the_recurrence_terminates_at_the_closed_form(l):
    s = Fraction(2 * l + 1, 2)
    gamma, n = 2 / s, 1
    a = [Fraction(1), 1 / s]
    for j in range(4):
        a.append((2 * a[j + 1] + gamma * (j - n) * a[j]) / ((j + 2) * (j + 1 + 2 * s)))
    assert a == [1, 1 / s, 0, 0, 0, 0]


@pytest.mark.parametrize("l", [0, 1, 2])
def test_the_closed_form_solves_the_radial_equation(l):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        s, gamma = mp.mpf(l) + mp.mpf(1) / 2, 2 / (mp.mpf(l) + mp.mpf(1) / 2)
        energy = gamma * (l + 2)

        def u(rho):
            return rho**s * mp.exp(-gamma * rho**2 / 4) * (1 + rho / s)

        for rho in (mp.mpf("0.3"), mp.mpf(1), mp.mpf("2.5")):
            potential = 2 / rho + gamma**2 * rho**2 / 4 + (l * l - mp.mpf(1) / 4) / rho**2
            residual = -mp.diff(u, rho, 2) + (potential - energy) * u(rho)
            assert abs(residual) <= mp.mpf(10) ** -20 * abs(u(rho))


@pytest.mark.parametrize("l", [0, 1, 2])
def test_partial_sums_approach_the_exact_energy(l):
    gamma, energy, _ = _state(l)
    bound = bind_params(TAUT, {"g": gamma})
    errors = [abs(solve(bound, l, order)[2].partial_sums[order] - energy) for order in ORDERS]
    assert all(error <= bar for error, bar in zip(errors, PARTIAL_SUM_ERRORS[l])), errors


@pytest.mark.parametrize("l", [0, 1, 2])
def test_the_fd_oracle_lies_within_its_bar_of_the_exact_energy(l):
    # measured: errs by 8.5e-12 / 1.4e-13 / 5.6e-14 at l = 0 / 1 / 2 against
    # bars of 1.6e-9 / 6.8e-10 / 6.1e-10 (ROADMAP item 7: the bar is wide)
    gamma, energy, _ = _state(l)
    bound = bind_params(TAUT, {"g": gamma})
    geom, _, _ = solve(bound, l, 3)
    fd, bar = fd_ground_energy(bound, l, max(20.0, 8.0 * geom.rho0), 500)
    assert abs(fd - energy) <= bar


@pytest.mark.parametrize("l, deficit", [(1, 2.9e-9), (2, 7.8e-12)])
def test_the_wavefunction_overlaps_the_closed_form(l, deficit):
    # 1 - overlap at K = 6, measured 2.88e-9 and 7.74e-12 (8.9e-6 at l = 0,
    # which is not asserted)
    gamma, _, u = _state(l)
    geom, table, _ = solve(bind_params(TAUT, {"g": gamma}), l, 6)
    grid = np.linspace(1e-3, 12.0, 4001)
    psi = synthesize_wavefunction(geom, table, grid).psi
    assert 1.0 - overlap(grid, psi, u(grid)) <= deficit
