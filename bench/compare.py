"""Compare two sets of benchmark results, or summarise one.

    python3 bench/compare.py PARENT_DIR [CHANGE_DIR] [--claim WORKLOAD:METRIC ...]

Each directory holds result files written by ``bench/run.py`` (one per run).
For every workload and end-to-end metric the parent's and the change's median
and quartiles are printed, and each metric is marked, with the bound from
BENCHMARK.json:

- ``unresolved``: the run-to-run spread (quartile distance over median) of
  either side is wider than the bound, and not every run of the change reads
  better than every run of the parent (not applied to ``setup_s``, which is
  judged on its median only);
- ``regressed``: the change's median is worse than the parent's by more than
  the bound;
- ``unchanged``: otherwise.

A claimed metric is met when the change wins at least nine of every ten
pairs (runs paired by seed, ties count for neither) and the medians differ,
in the claimed direction, by more than the parent's quartile distance.

When both directories also hold traced runs, per-layer times more than 10%
slower than the parent's are flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGE_SLOWDOWN = 0.10  # flag a per-layer time this much slower than the parent


def load(directory: Path, trace: int) -> dict[str, dict[str, dict[int, float]]]:
    """{workload: {metric: {seed: value}}} for the runs with this trace flag."""
    out: dict = defaultdict(lambda: defaultdict(dict))
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        if rec.get("trace") != trace:
            continue
        for name, m in rec["metrics"].items():
            out[rec["workload"]][name][rec["seed"]] = m["value"]
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(parent: float, change: float, better: str) -> float:
    """Relative worsening of ``change`` over ``parent`` (negative when better)."""
    if parent == 0:
        return 0.0
    rel = (change - parent) / abs(parent)
    return rel if better == "lower" else -rel


def verdict(parent, change, better, bound, check_spread=True) -> str:
    beats = (lambda c, p: c < p) if better == "lower" else (lambda c, p: c > p)
    all_better = all(beats(c, p) for c in change for p in parent)
    if check_spread and max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    if worse_by(statistics.median(parent), statistics.median(change), better) > bound:
        return "regressed"
    return "unchanged"


def claim(parent: dict[int, float], change: dict[int, float], better: str) -> tuple[bool, str]:
    seeds = sorted(set(parent) & set(change))
    if seeds:
        pairs = [(parent[s], change[s]) for s in seeds]
    else:
        pairs = list(zip(parent.values(), change.values()))
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    q1, p_med, q3 = quartiles(list(parent.values()))
    gap = sign * (p_med - statistics.median(change.values()))
    met = len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gap > q3 - q1
    return met, (f"{wins}/{len(pairs)} pairs won, median gain {gap:.4g} "
                 f"vs parent quartile distance {q3 - q1:.4g}")


def _cell(values) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def summarise(parent_dir: Path, bench: dict) -> int:
    runs = load(parent_dir, 0)
    for workload, metrics in sorted(runs.items()):
        print(f"{workload}  ({len(next(iter(metrics.values())))} runs)")
        for m in bench["end_to_end"]:
            values = list(metrics.get(m["name"], {}).values())
            if values:
                flag = "" if m["name"] == "setup_s" or spread(values) <= m["bound"] / 3 else "  WIDE"
                print(f"  {m['name']:16s} median [q1, q3] {_cell(values):36s} "
                      f"spread {spread(values):.3f} of bound {m['bound']}{flag}")
    return 0


def compare(parent_dir: Path, change_dir: Path, bench: dict, claims: list[str]) -> int:
    parent, change = load(parent_dir, 0), load(change_dir, 0)
    names = [m["name"] for m in bench["end_to_end"]]
    print("workload      " + "  ".join(f"{n:>22s}" for n in names))
    regressed = False
    details = []
    for workload in sorted(set(parent) & set(change)):
        cells = []
        for m in bench["end_to_end"]:
            p = list(parent[workload].get(m["name"], {}).values())
            c = list(change[workload].get(m["name"], {}).values())
            if not p or not c:
                cells.append(f"{'missing':>22s}")
                continue
            # set-up time is judged on its median only
            v = verdict(p, c, m["better"], m["bound"], check_spread=m["name"] != "setup_s")
            regressed |= v == "regressed"
            rel = -worse_by(statistics.median(p), statistics.median(c), m["better"])
            cells.append(f"{v + f' {rel:+.1%}':>22s}")
            details.append(f"  {workload:13s} {m['name']:16s} parent {_cell(p):36s} change {_cell(c)}")
        print(f"{workload:13s} " + "  ".join(cells))
    print("(+ means better; median [q1, q3] per side below)")
    print("\n".join(details))

    for item in claims:
        workload, _, metric = item.partition(":")
        spec = next((m for m in bench["end_to_end"] if m["name"] == metric), None)
        if spec is None or metric not in parent.get(workload, {}) or metric not in change.get(workload, {}):
            print(f"claim {item}: no such workload or metric in both sets")
            continue
        met, why = claim(parent[workload][metric], change[workload][metric], spec["better"])
        print(f"claim {item}: {'met' if met else 'not met'} ({why})")

    units = {m["name"]: m for m in bench["per_layer"]}
    p_tr, c_tr = load(parent_dir, 1), load(change_dir, 1)
    for workload in sorted(set(p_tr) & set(c_tr)):
        for name, p in sorted(p_tr[workload].items()):
            c = c_tr[workload].get(name)
            spec = units.get(name)
            if not c or not spec or spec["unit"] != "s":
                continue
            rel = worse_by(statistics.median(p.values()), statistics.median(c.values()), spec["better"])
            if rel > STAGE_SLOWDOWN:
                print(f"slower stage: {workload} {name} {rel:+.1%}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("parent", type=Path, help="results of the parent commit")
    parser.add_argument("change", type=Path, nargs="?", help="results of the change")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.change is None:
        return summarise(args.parent, bench)
    return compare(args.parent, args.change, bench, args.claim)


if __name__ == "__main__":
    sys.exit(main())
