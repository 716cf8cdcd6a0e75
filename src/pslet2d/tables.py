"""Benchmark table presets for the Coulomb-plus-oscillator hybrid potential.

Each preset reproduces one published benchmark table for

    V(rho) = m*g - 2/rho + g^2 rho^2 / 4

(2D hydrogenic levels in a magnetic field of strength g, effective Rydberg
units).  The Zeeman term uses the signed magnetic quantum number m while the
centrifugal barrier uses l = |m|.  Presets for the compactified field
variable map g' in [0, 1) to g = g'/(1 - g').

The published values are embedded as a versioned CSV so that a regression
failure points at a specific table cell.  Three cells of the g'-compactified
1S table carry an ``erratum`` tag: their printed values are misprints
(one duplicates the row's EN2 cell, one is inconsistent with the row's own
EN1 -> EN2 chain, one disagrees with the independent finite-difference
eigensolver at the 1e-6 level while every neighbouring cell matches).
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from importlib import resources

from .expressions import bind_params, parse_potential
from .engine import EnergyBreakdown, solve, solve_batch

__all__ = [
    "HYBRID_EXPRESSION",
    "PRESETS",
    "TablePreset",
    "PublishedCell",
    "TableRowResult",
    "load_published_values",
    "run_preset",
]

HYBRID_EXPRESSION = "m*g - 2/rho + g^2*rho^2/4"
_HYBRID_SPEC = parse_potential(HYBRID_EXPRESSION)


@dataclass(frozen=True)
class TablePreset:
    name: str
    m: int
    field_name: str  # column header for the swept variable
    rows: tuple[float, ...]
    compactified: bool  # rows are g' values, g = g'/(1-g')

    def gamma(self, x: float) -> float:
        return x / (1.0 - x) if self.compactified else x


PRESETS: dict[str, TablePreset] = {
    p.name: p
    for p in (
        TablePreset(
            name="hybrid-1s-gamma",
            m=0,
            field_name="gamma",
            rows=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 20, 28, 36, 40),
            compactified=False,
        ),
        TablePreset(
            name="hybrid-1s-gprime",
            m=0,
            field_name="gamma_prime",
            rows=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
            compactified=True,
        ),
        TablePreset(
            name="hybrid-2p-minus",
            m=-1,
            field_name="gamma_prime",
            rows=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
            compactified=True,
        ),
        TablePreset(
            name="hybrid-3d-minus",
            m=-2,
            field_name="gamma_prime",
            rows=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
            compactified=True,
        ),
    )
}


@dataclass(frozen=True)
class PublishedCell:
    """One published row: the four partial sums plus any erratum tag."""

    x: float
    sums: tuple[float, float, float, float]
    erratum: str  # '' or the name of the misprinted column (e.g. 'EN3')


@dataclass(frozen=True)
class TableRowResult:
    x: float
    gamma: float
    breakdown: EnergyBreakdown


def load_published_values(preset_name: str) -> tuple[PublishedCell, ...]:
    """Published values for a preset, from the embedded data file."""
    if preset_name not in PRESETS:
        raise KeyError(f"unknown preset {preset_name!r}")
    return _published().get(preset_name, ())


@functools.lru_cache(maxsize=None)
def _published() -> dict[str, tuple[PublishedCell, ...]]:
    """Every preset's published cells; the data file is read once per process."""
    cells: dict[str, list[PublishedCell]] = {}
    data = resources.files("pslet2d").joinpath("data/published_tables.csv")
    with data.open("r", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            cells.setdefault(row["preset"], []).append(
                PublishedCell(
                    x=float(row["x"]),
                    sums=(
                        float(row["EN0"]),
                        float(row["EN1"]),
                        float(row["EN2"]),
                        float(row["EN3"]),
                    ),
                    erratum=row["erratum"],
                )
            )
    return {name: tuple(rows) for name, rows in cells.items()}


def solve_hybrid(gamma: float, m: int, max_order: int = 3):
    """Solve the hybrid potential at field strength gamma."""
    bound = bind_params(_HYBRID_SPEC, {"m": float(m), "g": gamma})
    return solve(bound, m, max_order=max_order)


def run_preset(preset: TablePreset, max_order: int = 3) -> list[TableRowResult]:
    """Solve every row of a preset in one batch; a failing row raises its error."""
    gammas = [preset.gamma(x) for x in preset.rows]
    rows = [bind_params(_HYBRID_SPEC, {"m": float(preset.m), "g": g}) for g in gammas]
    results = []
    for x, gamma, row in zip(preset.rows, gammas, solve_batch(rows, preset.m, max_order)):
        if isinstance(row, Exception):
            raise row
        results.append(TableRowResult(x=x, gamma=gamma, breakdown=row[2]))
    return results
