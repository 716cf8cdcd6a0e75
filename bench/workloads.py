"""Seeded request generation and output checking for the pslet2d benchmark.

A workload is a list of CLI requests (argv lists for ``pslet2d.cli.main``).
The seed shuffles the order of the requests and draws their continuous
parameters, where a workload has any; the set of request *types* in one pass
is fixed, so every seed runs the same mix and the latency percentiles stay
comparable across seeds.

Each request carries its own independent reference, and ``check`` turns the
captured stdout into (energies delivered, largest deviation from the
reference).  The references never call into ``pslet2d``: published cells are
read straight from the CSV, and closed forms are written out here.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HYBRID = "m*g - 2/rho + g^2*rho^2/4"
COULOMB = "-2/rho"
OSCILLATOR = "g^2*rho^2/4"

# the published compactified-field rows g' = 0.0 .. 0.8, as field strengths g'/(1-g')
PUBLISHED_FIELDS = tuple(x / (1.0 - x) for x in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8))
HIGH_ORDERS = (6, 10, 15)
M_VALUES = tuple(range(-3, 4))
WAVEFUNCTION_POINTS = 500
WAVEFUNCTION_REACH = (1.0, 1.25)
WAVEFUNCTION_FIELDS = (0.5, 1.0, 1.5, 2.0, 2.5)
SWEEP_MS = (0, -1, -2)
PRESETS = ("hybrid-1s-gamma", "hybrid-1s-gprime", "hybrid-2p-minus", "hybrid-3d-minus")
PRESET_COPIES = 3


@dataclass(frozen=True)
class Request:
    """One CLI request plus what its output must reproduce.

    ``ref`` is a tagged tuple: ("published", preset), ("energy", exact or
    None), ("state", (potential, l, g) or None) or ("fd",).  An energy or a
    state without a closed form is checked for shape and finiteness only.
    """

    argv: tuple[str, ...]
    ref: tuple


def _fmt(x: float) -> str:
    return repr(float(x))


def _high_order(rng: random.Random) -> list[Request]:
    out = []
    for order in HIGH_ORDERS:
        for m in M_VALUES:
            l = abs(m)
            common = ("-m", str(m), "--order", str(order), "--format", "json")
            out.append(Request(("compute", "-V", COULOMB) + common,
                               ("energy", -((l + 0.5) ** -2))))
            g = rng.uniform(0.5, 2.5)
            out.append(Request(("compute", "-V", OSCILLATOR, "-p", f"g={_fmt(g)}") + common,
                               ("energy", g * (l + 1))))
            g = rng.uniform(0.5, 2.5)
            out.append(Request(("compute", "-V", HYBRID, "-p", f"g={_fmt(g)}") + common,
                               ("energy", None)))
    rng.shuffle(out)
    return out


def _wavefunction(rng: random.Random) -> list[Request]:
    # Coulomb and oscillator states only, as they have closed forms (on grids
    # this wide the hybrid's series overflows).  Every pass holds the same
    # states on the same grids, each reaching past the state's support, so
    # the largest |psi - exact| is the same for every seed; the seed orders
    # them.
    out = []
    for m in M_VALUES:
        l = abs(m)
        for reach in WAVEFUNCTION_REACH:
            hi = (l + 0.5) * (l + 12.5) * reach
            out.append(Request(("wavefunction", "-V", COULOMB, "-m", str(m),
                                "--grid", f"0.01,{_fmt(hi)},{WAVEFUNCTION_POINTS}"),
                               ("state", ("coulomb", l, None))))
        for g in WAVEFUNCTION_FIELDS:
            hi = math.sqrt(2.0 * (2 * l + 31) / g)
            out.append(Request(("wavefunction", "-V", OSCILLATOR, "-p", f"g={_fmt(g)}", "-m", str(m),
                                "--grid", f"0.01,{_fmt(hi)},{WAVEFUNCTION_POINTS}"),
                               ("state", ("oscillator", l, g))))
    rng.shuffle(out)
    return out


def _sweep_oracle(rng: random.Random) -> list[Request]:
    # Every pass covers every published field value for every m, so the
    # largest |EN3 - fd| is the same for every seed; the seed pairs the values
    # into two-point sweeps (one value is drawn twice to make the count even).
    out = []
    for m in SWEEP_MS:
        fields = list(PUBLISHED_FIELDS)
        rng.shuffle(fields)
        fields.append(rng.choice(fields[:-1]))
        for a, b in zip(fields[::2], fields[1::2]):
            argv = ("sweep", "-V", HYBRID, "-m", str(m), "--sweep-param", "g",
                    "--range", f"{_fmt(a)},{_fmt(b)},2", "--oracle")
            out.append(Request(argv, ("fd",)))
    rng.shuffle(out)
    return out


def _presets(rng: random.Random) -> list[Request]:
    # A table request has no continuous parameter; the seed orders three
    # copies of each of the four presets.
    out = [Request(("table", preset, "--check"), ("published", preset))
           for preset in PRESETS for _ in range(PRESET_COPIES)]
    rng.shuffle(out)
    return out


_GENERATORS = {
    "presets": _presets,
    "high_order": _high_order,
    "wavefunction": _wavefunction,
    "sweep_oracle": _sweep_oracle,
}
WORKLOADS = tuple(_GENERATORS)

# The share of each workload's request time that each kind of host-speed
# kernel stands for (see hostspeed.py), from the traced run at the seed
# commit: the FD oracle takes about 9 of the 12 ms of a sweep point.
HOST_MIX = {
    "presets": {"interpreter": 1.0},
    "high_order": {"interpreter": 1.0},
    "wavefunction": {"interpreter": 1.0},
    "sweep_oracle": {"interpreter": 0.25, "lapack": 0.75},
}


def generate(workload: str, seed: int) -> list[Request]:
    """The requests of one pass of ``workload``; equal seeds give equal lists."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# references and checks

def load_published(root: Path) -> dict[str, dict[float, tuple[list[float], str]]]:
    """Published cells by preset and row, read directly from the shipped CSV."""
    cells: dict[str, dict[float, tuple[list[float], str]]] = {}
    path = root / "src" / "pslet2d" / "data" / "published_tables.csv"
    with path.open(encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            sums = [float(row[f"EN{k}"]) for k in range(4)]
            cells.setdefault(row["preset"], {})[float(row["x"])] = (sums, row["erratum"])
    return cells


def _exact_state(potential: str, l: int, g: float | None):
    """The normalised nodeless psi(rho) = N rho^(l+1/2) exp(...) of acceptance criterion 7."""
    if potential == "coulomb":  # V = -2/rho: E = -1/(l+1/2)^2, decay rate k = 1/(l+1/2)
        k = 1.0 / (l + 0.5)
        norm = math.sqrt((2.0 * k) ** (2 * l + 2) / math.gamma(2 * l + 2))
        return lambda rho: norm * rho ** (l + 0.5) * math.exp(-k * rho)
    # V = g^2 rho^2 / 4: E = g (l+1)
    norm = math.sqrt(2.0 / (math.gamma(l + 1) * (2.0 / g) ** (l + 1)))
    return lambda rho: norm * rho ** (l + 0.5) * math.exp(-g * rho * rho / 4.0)


class CheckError(Exception):
    """The request's output is missing, non-finite or does not match its shape."""


def _floats(cells) -> list[float]:
    try:
        vals = [float(c) for c in cells]
    except ValueError as exc:
        raise CheckError(f"non-numeric output cell: {exc}") from None
    if not all(math.isfinite(v) for v in vals):
        raise CheckError("non-finite number in output")
    return vals


def _csv_rows(stdout: str) -> tuple[list[str], list[list[str]]]:
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise CheckError("no data rows in output")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def check(req: Request, stdout: str, published) -> tuple[int, float | None]:
    """Validate one successful request's stdout.

    Returns (energies delivered, largest deviation from the reference or None
    when the request has no closed-form reference).  Raises CheckError.
    """
    kind = req.ref[0]
    if kind == "published":
        _, rows = _csv_rows(stdout)
        cells = published[req.ref[1]]
        if len(rows) != len(cells):
            raise CheckError(f"{len(rows)} rows, expected {len(cells)}")
        worst = 0.0
        for row in rows:
            x, *sums = _floats(row)
            ref, erratum = cells[x]
            for k, (got, want) in enumerate(zip(sums, ref)):
                if erratum != f"EN{k}":
                    worst = max(worst, abs(got - want))
        return len(rows), worst
    if kind == "energy":
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            raise CheckError(f"malformed JSON: {exc}") from None
        order = int(req.argv[req.argv.index("--order") + 1])
        values = [v for group in doc.values() for v in group.values()]
        _floats(values)
        exact = req.ref[1]
        if exact is None:
            return 1, None
        return 1, abs(doc["partial_sums"][f"EN{order}"] - exact)
    if kind == "state":
        _, rows = _csv_rows(stdout)
        if len(rows) != WAVEFUNCTION_POINTS:
            raise CheckError(f"{len(rows)} samples, expected {WAVEFUNCTION_POINTS}")
        samples = [_floats(row) for row in rows]
        if req.ref[1] is None:
            return 1, None
        exact = _exact_state(*req.ref[1])
        return 1, max(abs(psi - exact(rho)) for rho, psi, _ in samples)
    if kind == "fd":
        header, rows = _csv_rows(stdout)
        en, fd, error = header.index("EN3"), header.index("fd"), header.index("error")
        worst = 0.0
        for row in rows:
            if row[error]:
                raise CheckError(f"sweep row failed: {row[error]}")
            vals = _floats(row[:error])
            worst = max(worst, abs(vals[en] - vals[fd]))
        return len(rows), worst
    raise ValueError(f"unknown reference kind {kind!r}")
