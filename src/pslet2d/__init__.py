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
from .jets import Jet, derivative, jet_lift
from .engine import (
    CoefficientTable,
    EnergyBreakdown,
    FrequencyUndefinedError,
    Geometry,
    HierarchyInconsistencyError,
    NoStableFrameError,
    NotAMinimumError,
    SolverError,
    assemble_energy,
    build_v_series,
    solve,
    solve_geometry,
    solve_hierarchy,
)
from .oracle import FdGrid, coulomb_exact, fd_ground_energy, oscillator_exact
from .wavefunction import (
    GridError,
    WavefunctionSeries,
    overlap,
    synthesize_wavefunction,
)

__version__ = "0.1.0"

__all__ = [
    "BoundPotential",
    "CoefficientTable",
    "ConstantPotentialError",
    "EnergyBreakdown",
    "FdGrid",
    "FrequencyUndefinedError",
    "Geometry",
    "GridError",
    "HierarchyInconsistencyError",
    "Jet",
    "NoStableFrameError",
    "NotAMinimumError",
    "PotentialEvalError",
    "PotentialSpec",
    "PotentialSyntaxError",
    "SolverError",
    "WavefunctionSeries",
    "assemble_energy",
    "bind_params",
    "build_v_series",
    "coulomb_exact",
    "derivative",
    "fd_ground_energy",
    "jet_lift",
    "oscillator_exact",
    "overlap",
    "parse_potential",
    "solve",
    "solve_geometry",
    "solve_hierarchy",
    "synthesize_wavefunction",
]
