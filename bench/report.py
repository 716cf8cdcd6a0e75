"""Print the stage baseline table from one traced result file.

    python3 bench/report.py bench/out/<workload>-seed<n>-trace1-<stamp>.json

Every traced run also runs a fixed probe (hybrid gamma = 1, m = 0; see
``PROBE`` in ``run.py``), so any traced result file regenerates the table.
Times are medians over the run's traced rounds and include the tracing
overhead the file reports as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROWS = (
    ("`solve(order=3)` end to end", "solve_K3_s"),
    ("├ `solve_geometry`", "geometry_s"),
    ("├ `build_v_series`", "v_series_s"),
    ("├ `solve_hierarchy` (K = 3)", "hierarchy_K3_s"),
    ("└ `assemble_energy`", "assemble_s"),
    ("`solve_hierarchy` at K = 6", "hierarchy_K6_s"),
    ("`solve_hierarchy` at K = 10", "hierarchy_K10_s"),
    ("`solve_hierarchy` at K = 15", "hierarchy_K15_s"),
    ("`synthesize_wavefunction`, 500 points", "wavefunction_500_s"),
    ("`fd_ground_energy`, 4000 + 8000 cells", "fd_oracle_s"),
)
COUNTS = (
    ("jet lifts", "jet_lifts"),
    ("tree walks (top-level `evaluate`)", "tree_walks"),
    ("`evaluate` node visits", "node_visits"),
    ("`brentq` brackets", "brentq_brackets"),
)


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3g} ms"


def render(record: dict) -> str:
    env, probe = record["environment"], record["probe"]
    ratio = record["metrics"]["trace.overhead_ratio"]["value"]
    lines = [
        f"Setup: Python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"{env['nproc']} cores ({env['cpu_model']}), commit {env['git_commit'] or 'unknown'}. "
        f"Traced run of workload `{record['workload']}`, seed {record['seed']}, "
        f"{record['rounds']} rounds; each figure is the median per call, traced "
        f"(overhead ratio {ratio:.3f}). Potential: hybrid γ = 1, m = 0.",
        "",
        "| stage | time |",
        "|---|---|",
    ]
    lines += [f"| {label} | {_ms(probe[key])} |" for label, key in ROWS]
    lines.append(f"| set-up: fresh interpreter, import and first request (`setup_s`) "
                 f"| {record['setup_s']:.3g} s |")
    lines += ["", "Per order-3 solve:", "", "| count | per solve |", "|---|---|"]
    lines += [f"| {label} | {probe[key]:g} |" for label, key in COUNTS]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("result", type=Path, help="a result file of a --trace 1 run")
    args = parser.parse_args(argv)
    record = json.loads(args.result.read_text(encoding="utf-8"))
    if record.get("trace") != 1:
        print("report: need the result file of a --trace 1 run", file=sys.stderr)
        return 2
    print(render(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
