"""Command-line interface: single computations, benchmark table presets,
parameter sweeps and wavefunction dumps.

Exit codes: 0 success, 2 usage error, 3 expression or parameter error,
4 solver failure, 5 table check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import tables
from .expressions import (
    BoundPotential,
    ConstantPotentialError,
    PotentialEvalError,
    PotentialSpec,
    PotentialSyntaxError,
    bind_params,
    parse_potential,
)
from .engine import MAX_ORDER, SolverError, solve, solve_batch
from .oracle import fd_ground_energy
from .wavefunction import GridError, synthesize_wavefunction

EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_SOLVER = 4
EXIT_CHECK = 5

CHECK_TOLERANCE = 1e-5
ORACLE_CELLS = 500  # base FD mesh of the sweep's oracle column, over (0, rho_max]
# below this many base cells across rho0 the oracle's error bar may not cover
# its error: it did at every rho0/h >= 3 measured, and missed by up to 9x below
MIN_CELLS_PER_RHO0 = 4


class UsageError(Exception):
    pass


class ParameterError(Exception):
    pass


def _fmt(v: float) -> str:
    """Nine decimals; in exponent form from |v| = 1e15, where fixed point prints every digit."""
    return f"{v:.9e}" if abs(v) >= 1e15 else f"{v:.9f}"


def _parse_param_flags(pairs: list[str] | None) -> dict[str, float]:
    values: dict[str, float] = {}
    for pair in pairs or []:
        name, eq, raw = pair.partition("=")
        if not eq or not name.strip():
            raise UsageError(f"malformed -p/--param {pair!r}, expected name=value")
        try:
            value = float(raw)
        except ValueError:
            raise UsageError(f"non-numeric value in -p/--param {pair!r}") from None
        if not math.isfinite(value):
            raise ParameterError(f"non-finite value in -p/--param {pair!r}")
        values[name.strip()] = value
    return values


def _triple(text: str, flag: str, expected: str) -> tuple[float, float, int]:
    """The ``lo,hi,count`` of ``flag``'s value ``text``; ``expected`` names the fields."""
    try:
        lo, hi, count = text.split(",")
        return float(lo), float(hi), int(count)
    except ValueError:
        raise UsageError(f"malformed {flag} {text!r}, expected {expected}") from None


def _linspace(lo: float, hi: float, count: int, flag: str) -> np.ndarray:
    try:
        return np.linspace(lo, hi, count)
    except (ValueError, MemoryError) as exc:
        raise UsageError(f"cannot build {count} points for {flag}: {exc}") from None


def _with_m(spec: PotentialSpec, params: dict[str, float], m: int) -> dict[str, float]:
    # the signed magnetic quantum number doubles as the Zeeman parameter
    if "m" in spec.params and "m" not in params:
        return dict(params, m=float(m))
    return params


def _bind(spec: PotentialSpec, params: dict[str, float], m: int) -> BoundPotential:
    return bind_params(spec, _with_m(spec, params, m))


# ---------------------------------------------------------------------------
# compute

def cmd_compute(args) -> int:
    params = _parse_param_flags(args.param)
    bound = _bind(parse_potential(args.potential), params, args.m)
    geom, table, breakdown = solve(bound, args.m, max_order=args.order)

    geometry = {
        "rho0": geom.rho0,
        "w": geom.w,
        "beta": geom.beta,
        "lbar": geom.lbar,
        "l": geom.l,
    }
    corrections = {"E(-2)": breakdown.e_minus2, "E(-1)": breakdown.e_minus1}
    for n, c in enumerate(breakdown.corrections):
        corrections[f"E({n})"] = c
    partial_sums = {
        f"EN{k}": s for k, s in enumerate(breakdown.partial_sums)
    }

    if args.format == "json":
        doc = {
            "geometry": geometry,
            "corrections": corrections,
            "partial_sums": partial_sums,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif args.format == "csv":
        keys = list(partial_sums)
        print(",".join(keys))
        print(",".join(_fmt(partial_sums[k]) for k in keys))
    else:
        print(f"potential: {bound}")
        for label, group in (("geometry", geometry), ("corrections", corrections)):
            print(f"{label}:")
            for k, v in group.items():
                print(f"  {k:>8} = {v:.12g}")
        print("partial sums:")
        for k, v in partial_sums.items():
            print(f"  {k:>8} = {_fmt(v)}")
    return 0


# ---------------------------------------------------------------------------
# table

def cmd_table(args) -> int:
    if args.preset not in tables.PRESETS:
        raise UsageError(
            f"unknown preset {args.preset!r}; choose from "
            + ", ".join(sorted(tables.PRESETS))
        )
    preset = tables.PRESETS[args.preset]
    results = tables.run_preset(preset, max_order=args.order)

    header = [preset.field_name] + [f"EN{k}" for k in range(args.order + 1)]
    print(",".join(header))
    for r in results:
        cells = [f"{r.x:g}"] + [_fmt(s) for s in r.breakdown.partial_sums]
        print(",".join(cells))

    if args.check:
        published = {c.x: c for c in tables.load_published_values(preset.name)}
        worst = 0.0
        failures = []
        for r in results:
            cell = published[r.x]
            for k in range(min(len(cell.sums), args.order + 1)):
                name = f"EN{k}"
                if cell.erratum == name:
                    continue  # documented misprint in the published table
                dev = abs(r.breakdown.partial_sums[k] - cell.sums[k])
                worst = max(worst, dev)
                if dev > CHECK_TOLERANCE:
                    failures.append((r.x, name, dev))
        print(f"check: max abs deviation = {worst:.3e}", file=sys.stderr)
        if failures:
            for x, name, dev in failures:
                print(
                    f"check failure: row {x:g} {name} deviates {dev:.3e}",
                    file=sys.stderr,
                )
            return EXIT_CHECK
    return 0


# ---------------------------------------------------------------------------
# sweep

def _oracle_shift(sums: tuple[float, ...]) -> float:
    """The oracle's first shift: the partial sum that ends with the smallest
    correction |EN_k - EN_(k-1)|, k >= 1, not EN_K, which can be rounding noise
    at high order (EN15 of the hybrid at m = 0, g = 1 reads -3.96e5)."""
    return sums[min(range(1, len(sums)), key=lambda k: abs(sums[k] - sums[k - 1]))]


def cmd_sweep(args) -> int:
    lo, hi, steps = _triple(args.range, "--range", "lo,hi,steps")
    if steps < 2:
        raise UsageError("sweep needs at least 2 steps")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError(f"non-finite value in --range {args.range!r}")
    values = _linspace(lo, hi, steps, "--range")

    name = args.sweep_param
    params = _parse_param_flags(args.param)
    spec = parse_potential(args.potential)
    if name not in spec.params:
        raise UsageError(f"sweep parameter {name!r} does not appear in the potential")
    if name in params:
        raise UsageError(f"sweep parameter {name!r} cannot also be bound by -p/--param")
    params = _with_m(spec, params, args.m)
    # all rows are bound and solved before the header goes out, so a missing
    # or extraneous parameter leaves stdout empty
    bounds = [bind_params(spec, {**params, name: v}) for v in values.tolist()]
    results = solve_batch(bounds, args.m, args.order)

    header = [name, "rho0"] + [f"EN{k}" for k in range(args.order + 1)]
    if args.oracle:
        header += ["fd", "fd_err"]
    header.append("error")
    print(",".join(header))

    for bound, result in zip(bounds, results):
        row = [f"{bound.values[name]:.9g}"]
        try:
            if isinstance(result, Exception):
                raise result
            geom, _, breakdown = result
            row.append(_fmt(geom.rho0))
            row.extend(_fmt(s) for s in breakdown.partial_sums)
            if args.oracle:
                rho_max = max(20.0, 8.0 * geom.rho0)
                cells = geom.rho0 / (rho_max / ORACLE_CELLS)
                if cells < MIN_CELLS_PER_RHO0:
                    raise SolverError(
                        f"FD mesh too coarse for the oracle: rho0 = {geom.rho0:.3g} spans "
                        f"{cells:.3g} cells of the {MIN_CELLS_PER_RHO0} needed")
                fd, fd_err = fd_ground_energy(bound, geom.l, rho_max, ORACLE_CELLS,
                                              _oracle_shift(breakdown.partial_sums))
                if not math.isfinite(fd):
                    raise SolverError(f"FD energy {fd} is not finite")
                row += [_fmt(fd), f"{fd_err:.1e}"]
            row.append("")
        except (SolverError, PotentialEvalError) as exc:
            # keep what was solved: a failed oracle blanks only its own cells
            row += [""] * (len(header) - 1 - len(row)) + [str(exc).replace(",", ";")]
        print(",".join(row))
    return 0


# ---------------------------------------------------------------------------
# wavefunction

def cmd_wavefunction(args) -> int:
    lo, hi, n = _triple(args.grid, "--grid", "lo,hi,n")
    if n < 2 or not 0 < lo < hi < math.inf:
        raise UsageError("grid must satisfy 0 < lo < hi < inf with n >= 2 points")
    grid = _linspace(lo, hi, n, "--grid")

    params = _parse_param_flags(args.param)
    bound = _bind(parse_potential(args.potential), params, args.m)
    geom, table, _ = solve(bound, args.m, max_order=args.order)
    wf = synthesize_wavefunction(geom, table, grid)

    # one % over all rows laid end to end: a % per row costs about 10% more
    cells = np.column_stack((wf.grid, wf.psi, wf.radial)).ravel().tolist()
    sys.stdout.write("rho,psi,R\n" + "%.9g,%.10e,%.10e\n" * len(wf.grid) % tuple(cells))
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pslet2d",
        description=(
            "Nodeless-state energies and wavefunctions of the 2D radial "
            "Schrodinger equation via the shifted-l expansion "
            "(effective Rydberg units, hbar = 2m = 1)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, potential=True):
        if potential:
            p.add_argument("-V", "--potential", required=True, help="V(rho) expression")
            p.add_argument(
                "-p",
                "--param",
                action="append",
                metavar="NAME=VALUE",
                help="bind a potential parameter (repeatable)",
            )
            p.add_argument("-m", type=int, default=0, help="magnetic quantum number")
        p.add_argument("--order", type=int, default=3, help="truncation order (default 3)")

    p = sub.add_parser("compute", help="energy breakdown for one configuration")
    add_common(p)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("table", help="benchmark table preset as CSV")
    p.add_argument("preset", help="one of " + ", ".join(sorted(tables.PRESETS)))
    add_common(p, potential=False)
    p.add_argument(
        "--check",
        action="store_true",
        help="compare against embedded published values",
    )
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("sweep", help="sweep one parameter, CSV per row")
    add_common(p)
    p.add_argument("--sweep-param", required=True, metavar="NAME")
    p.add_argument("--range", required=True, metavar="LO,HI,STEPS")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="add a finite-difference cross-check column",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("wavefunction", help="normalized wavefunction samples as CSV")
    add_common(p)
    p.add_argument("--grid", required=True, metavar="LO,HI,N")
    p.set_defaults(func=cmd_wavefunction)

    return parser


def _merge_dash_values(argv: list[str]) -> list[str]:
    """Let option values start with '-' (e.g. -V "-2/rho") by attaching them."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if nxt is not None and nxt.startswith("-"):
            if tok in ("-V", "-p", "-m"):
                out.append(tok + nxt)
                i += 2
                continue
            if tok in ("--potential", "--param", "--range", "--grid", "--sweep-param"):
                out.append(f"{tok}={nxt}")
                i += 2
                continue
        out.append(tok)
        i += 1
    return out


_PARSER = build_parser()  # built once: it costs as much as a small solve


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _PARSER.parse_args(_merge_dash_values(list(argv)))
    try:
        if args.order < 1:
            raise UsageError(f"--order must be >= 1, got {args.order}")
        if args.order > MAX_ORDER:
            raise UsageError(f"--order must be <= {MAX_ORDER}, got {args.order}")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PotentialSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (KeyError, ParameterError) as exc:
        # the args, not str(exc): str() of a KeyError quotes its message
        print("parameter error:", *exc.args, file=sys.stderr)
        return EXIT_PARSE
    except (SolverError, ConstantPotentialError, PotentialEvalError, GridError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
