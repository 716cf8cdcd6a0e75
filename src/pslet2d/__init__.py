"""Shifted-l pseudoperturbation solver for nodeless states of the 2D radial
Schrodinger equation with cylindrically symmetric potentials."""

from .expressions import (
    BoundPotential,
    ConstantPotentialError,
    PotentialEvalError,
    PotentialSpec,
    PotentialSyntaxError,
    bind_params,
    parse_potential,
)
from .jets import jet_lift
from .engine import (
    CoefficientTable,
    EnergyBreakdown,
    FrequencyUndefinedError,
    Geometry,
    HierarchyInconsistencyError,
    NoStableFrameError,
    SolverError,
    solve,
    solve_batch,
)
from .oracle import coulomb_exact, fd_ground_energy, oscillator_exact
from .wavefunction import (
    GridError,
    WavefunctionSeries,
    synthesize_wavefunction,
)

__version__ = "0.1.0"

__all__ = [
    "BoundPotential",
    "CoefficientTable",
    "ConstantPotentialError",
    "EnergyBreakdown",
    "FrequencyUndefinedError",
    "Geometry",
    "GridError",
    "HierarchyInconsistencyError",
    "NoStableFrameError",
    "PotentialEvalError",
    "PotentialSpec",
    "PotentialSyntaxError",
    "SolverError",
    "WavefunctionSeries",
    "bind_params",
    "coulomb_exact",
    "fd_ground_energy",
    "jet_lift",
    "oscillator_exact",
    "parse_potential",
    "solve",
    "solve_batch",
    "synthesize_wavefunction",
]
