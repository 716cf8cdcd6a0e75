"""Taut's quasi-exact states: an exact reference for a series that does not terminate.

V = 2/rho + gamma^2 rho^2 / 4 (the hybrid with the Coulomb sign flipped: the
relative motion of two electrons in a 2D parabolic dot) has closed-form
nodeless states u = rho^s e^(-gamma rho^2 / 4) P_n(rho), s = l + 1/2, at
special gamma, with E = gamma (l + 1 + n).  P_n's coefficients follow

    (j + 2)(j + 1 + 2s) a_(j+2) = 2 a_(j+1) + gamma (j - n) a_j,   a_0 = 1, a_1 = 1/s,

and gamma is a root of a_(n+1)(gamma) = 0.  Two families are rational:

  n = 1:  gamma = 2/s,         P_1 = 1 + rho/s,                        E = gamma (l + 2);
  n = 2:  gamma = 2/(1 + 4s),  P_2 = 1 + rho/s + rho^2/(s (1 + 4s)),   E = gamma (l + 3).

All of P_n's coefficients are positive, so every state is nodeless.  Unlike
Coulomb's and the oscillator's, the expansion's series does not terminate
here.

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
# (n, l) of each state, an n = 1 state named by its l alone
STATES = [pytest.param(n, l, id=str(l) if n == 1 else f"n2-{l}") for n in (1, 2) for l in range(3)]
# |EN_K - E| at K = 3, 6, 10, 15, as measured (float gamma), rounded up in the
# third digit.  At n = 1, l = 0, K = 15 is worse than K = 10 because the
# series diverges there, not because of rounding: the same expansion run in
# mpmath gives EN15 = 8.000572, and the float EN15 lies within 1.4e-8 of it.
# At n = 2, l = 0, K = 10 is worse than K = 6, and whether the series
# diverges there or the hierarchy's rounding grows is still open (ROADMAP
# item 13).  So no monotone improvement is asserted.
PARTIAL_SUM_ERRORS = {
    (1, 0): (8.39e-2, 8.06e-3, 1.40e-4, 5.72e-4),
    (1, 1): (1.34e-3, 2.42e-5, 1.42e-7, 7.66e-8),
    (1, 2): (1.12e-4, 6.64e-7, 2.06e-9, 2.25e-10),
    (2, 0): (1.19e-2, 4.29e-5, 5.07e-5, 8.81e-6),
    (2, 1): (4.84e-4, 5.55e-6, 1.55e-8, 1.35e-9),
    (2, 2): (5.32e-5, 2.70e-7, 8.16e-11, 1.86e-11),
}


def _closed_form(n, l):
    """(gamma, [a_0, .., a_n]) of the state in exact rationals."""
    s = Fraction(2 * l + 1, 2)
    if n == 1:
        return 2 / s, [Fraction(1), 1 / s]
    return 2 / (1 + 4 * s), [Fraction(1), 1 / s, 1 / (s * (1 + 4 * s))]


def _state(n, l):
    """(gamma, E, u) of the state in floats, u unnormalized."""
    gamma, a = _closed_form(n, l)
    gamma, s = float(gamma), l + 0.5
    coeffs = list(map(float, a))
    return gamma, gamma * (l + 1 + n), lambda rho: (
        rho**s * np.exp(-gamma * rho**2 / 4) * np.polynomial.polynomial.polyval(rho, coeffs))


@pytest.mark.parametrize("n, l", STATES)
def test_the_recurrence_terminates_at_the_closed_form(n, l):
    s = Fraction(2 * l + 1, 2)
    gamma, closed = _closed_form(n, l)
    a = [Fraction(1), 1 / s]
    for j in range(4):
        a.append((2 * a[j + 1] + gamma * (j - n) * a[j]) / ((j + 2) * (j + 1 + 2 * s)))
    assert a == closed + [0] * (6 - len(closed))
    assert all(c > 0 for c in closed)  # P_n has no positive zero


@pytest.mark.parametrize("n, l", STATES)
def test_the_closed_form_solves_the_radial_equation(n, l):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        gamma, a = _closed_form(n, l)
        gamma, *a = (mp.mpf(x.numerator) / x.denominator for x in [gamma, *a])
        s = mp.mpf(l) + mp.mpf(1) / 2
        energy = gamma * (l + 1 + n)

        def u(rho):
            return rho**s * mp.exp(-gamma * rho**2 / 4) * mp.polyval(a[::-1], rho)

        for rho in (mp.mpf("0.3"), mp.mpf(1), mp.mpf("2.5")):
            potential = 2 / rho + gamma**2 * rho**2 / 4 + (l * l - mp.mpf(1) / 4) / rho**2
            residual = -mp.diff(u, rho, 2) + (potential - energy) * u(rho)
            assert abs(residual) <= mp.mpf(10) ** -20 * abs(u(rho))


@pytest.mark.parametrize("n, l", STATES)
def test_partial_sums_approach_the_exact_energy(n, l):
    gamma, energy, _ = _state(n, l)
    bound = bind_params(TAUT, {"g": gamma})
    errors = [abs(solve(bound, l, order)[2].partial_sums[order] - energy) for order in ORDERS]
    assert all(error <= bar for error, bar in zip(errors, PARTIAL_SUM_ERRORS[n, l])), errors


@pytest.mark.parametrize("n, l", STATES)
def test_the_fd_oracle_lies_within_its_bar_of_the_exact_energy(n, l):
    # measured: errs by 8.5e-12 / 1.4e-13 / 5.6e-14 at n = 1, l = 0 / 1 / 2
    # against bars of 1.6e-9 / 6.8e-10 / 6.1e-10, and by 1.1e-13 / 5.5e-14 /
    # 5.5e-14 at n = 2 against 8.0e-11 / 1.5e-10 / 1.7e-10 (ROADMAP item 7:
    # the bar is wide)
    gamma, energy, _ = _state(n, l)
    bound = bind_params(TAUT, {"g": gamma})
    geom, _, _ = solve(bound, l, 3)
    fd, bar = fd_ground_energy(bound, l, max(20.0, 8.0 * geom.rho0), 500)
    assert abs(fd - energy) <= bar


# 1 - overlap at K = 6 on 4001 points from 1e-3, measured 2.88e-9 and 7.74e-12
# for n = 1 on a grid to 12 (8.9e-6 at l = 0, which is not asserted), and
# 1.794e-8 and 8.942e-11 for n = 2, whose rho0 of 4.7 and 6.7 needs a grid to 40
@pytest.mark.parametrize("n, l, end, deficit", [
    pytest.param(1, 1, 12.0, 2.9e-9, id="1-2.9e-09"),
    pytest.param(1, 2, 12.0, 7.8e-12, id="2-7.8e-12"),
    pytest.param(2, 1, 40.0, 1.80e-8, id="n2-1-1.8e-08"),
    pytest.param(2, 2, 40.0, 8.95e-11, id="n2-2-8.95e-11"),
])
def test_the_wavefunction_overlaps_the_closed_form(n, l, end, deficit):
    gamma, _, u = _state(n, l)
    geom, table, _ = solve(bind_params(TAUT, {"g": gamma}), l, 6)
    grid = np.linspace(1e-3, end, 4001)
    psi = synthesize_wavefunction(geom, table, grid).psi
    assert 1.0 - overlap(grid, psi, u(grid)) <= deficit
