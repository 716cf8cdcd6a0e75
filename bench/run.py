"""pslet2d benchmark: drive the CLI in-process and report end-to-end or per-layer metrics.

    python3 bench/run.py --workload high_order --seed 1 --seconds 10 --trace 0

One process, one client thread, closed loop: each request is sent only after
the previous one has returned.  A request is one ``pslet2d.cli.main(argv)``
call with stdout and stderr captured; its output is checked against an
independent reference outside the timed region.  The run repeats whole passes
over the seeded request list (see ``workloads.py``) until ``--seconds`` have
been measured and at least ``MIN_REQUESTS`` requests have completed, so every
request type is equally represented.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, with the
request times scaled to a reference host speed measured between requests
(``hostspeed.py``); the record keeps the unscaled values.  ``--trace 1``
alternates untraced and traced passes (plus a fixed probe of the baseline
stages) and prints the per-layer metrics.  The last stdout line is one JSON
object; the full record, with the environment, goes to ``bench/out/``.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools of one thread, for this process and the set-up children only.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_REQUESTS = 100  # so that at least ten samples lie beyond p90
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60
CAL_INTERVAL_S = 0.06  # request time between two timings of the host-speed kernels
CAL_REACH = 2  # a request is scaled by the 2 * CAL_REACH + 1 timings around it

# Fixed requests of the baseline stages (hybrid gamma = 1, m = 0), run in
# every traced round; the baseline report reads them.
_HYBRID_G1 = ("-V", workloads.HYBRID, "-p", "g=1", "-m", "0")
PROBE = {
    **{f"K{k}": workloads.Request(("compute", *_HYBRID_G1, "--order", str(k), "--format", "json"),
                                  ("energy", None)) for k in (3, 6, 10, 15)},
    "wavefunction": workloads.Request(("wavefunction", *_HYBRID_G1, "--grid", "0.01,8,500"), ("state", None)),
    "fd": workloads.Request(("sweep", "-V", workloads.HYBRID, "-m", "0", "--sweep-param", "g",
                             "--range", "1,1,2", "--oracle"), ("fd",)),
    "table": workloads.Request(("table", "hybrid-2p-minus", "--check"), ("published", "hybrid-2p-minus")),
}


@dataclass
class Outcome:
    latency: float
    energies: int
    error: float | None
    failure: str | None


class Client:
    """Sends requests to the in-process CLI and checks what comes back."""

    def __init__(self, published):
        from pslet2d import cli

        self.cli = cli
        self.published = published
        self.outcomes: list[Outcome] = []

    def send(self, req: workloads.Request, tracer: spans.Tracer | None = None) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        failure = None
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if tracer is None:
                        rc = self.cli.main(list(req.argv))
                    else:
                        rc = tracer.call("cli.main", self.cli.main, list(req.argv),
                                         on_result=lambda code: code != 0)
            except SystemExit as exc:  # argparse rejects a request this way
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a traceback is a failed request, not a crash
                rc, failure = None, f"raised {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
        energies, error = 0, None
        if failure is None and rc != 0:
            failure = f"exit code {rc}: {err.getvalue().strip()[:200]}"
        if failure is None:
            try:
                energies, error = workloads.check(req, out.getvalue(), self.published)
            except workloads.CheckError as exc:
                failure = f"bad output: {exc}"
        outcome = Outcome(latency, energies, error, failure)
        self.outcomes.append(outcome)
        return outcome

    def run_pass(self, requests, tracer_for=None, after=None) -> tuple[int, float]:
        """Send every request once, calling ``after()`` after each one;
        returns (energies delivered, busy seconds)."""
        energies, busy = 0, 0.0
        for i, req in enumerate(requests):
            tracer = tracer_for(i) if tracer_for else None
            o = self.send(req, tracer)
            energies += o.energies
            busy += o.latency
            if after:
                after()
        return energies, busy

    @property
    def failed(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.failure is not None]


# ---------------------------------------------------------------------------
# measurements

def measure_setup(argv) -> list[float]:
    """Wall time of fresh interpreters that import pslet2d.cli and serve ``argv``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys; from pslet2d import cli; sys.exit(cli.main(sys.argv[1:]))"
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=SETUP_TIMEOUT_S, check=False)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up request failed with exit code {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace').strip()[:300]}")
    return times


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _max_error(outcomes) -> float:
    errors = [o.error for o in outcomes if o.error is not None]
    return max(errors) if errors else 0.0


def run_untraced(client, requests, seconds, host_mix) -> dict:
    client.run_pass(requests)  # warm-up: imports, caches, first-call set-up
    meter = hostspeed.Meter(host_mix)
    first = len(client.outcomes)
    sample_of = []  # per measured request: the kernel timing that follows it
    since = 0.0

    def calibrate():
        nonlocal since
        sample_of.append(meter.samples)
        since += client.outcomes[-1].latency
        if since >= CAL_INTERVAL_S:
            meter.sample()
            since = 0.0

    energies = busy = 0.0
    passes = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(client.outcomes) - first < MIN_REQUESTS:
        e, b = client.run_pass(requests, after=calibrate)
        energies, busy, passes = energies + e, busy + b, passes + 1
    measured = client.outcomes[first:]
    # Each request time is scaled to the reference host speed by the kernel
    # timings around it (see hostspeed.py).  The host switches speed within
    # seconds, so a whole-run speed would leave a request time distribution
    # with one mode per host state, and its percentiles would jump between
    # them.
    scaled = [o.latency * meter.speed(n, CAL_REACH) for o, n in zip(measured, sample_of)]
    # a failed request misses every latency limit
    raw_latencies = [math.inf if o.failure else o.latency for o in measured]
    latencies = [math.inf if o.failure else t for o, t in zip(measured, scaled)]
    raw = {
        "solves_per_s": energies / busy,
        "request_p50_ms": percentile(raw_latencies, 50) * 1e3,
        "request_p90_ms": percentile(raw_latencies, 90) * 1e3,
    }
    return {
        "metrics": {
            "solves_per_s": energies / sum(scaled),
            "request_p50_ms": percentile(latencies, 50) * 1e3,
            "request_p90_ms": percentile(latencies, 90) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
            "max_abs_err": _max_error(client.outcomes),
        },
        "raw": raw,
        "host_speed": meter.speed(),
        "host_speed_samples": meter.samples,
        "passes": passes,
        "requests": len(latencies),
        "measured_s": time.perf_counter() - start,
    }


def _probe_stages(tracers: dict[str, spans.Tracer]) -> dict[str, float]:
    """Per-call stage times (s) and per-solve counts of one probe round."""
    k3 = spans.PassStats(tracers["K3"])
    out = {
        "solve_K3_s": k3.incl["engine.solve"],
        "geometry_s": k3.incl["engine.solve_geometry"],
        "v_series_s": k3.incl["engine.build_v_series"],
        "assemble_s": k3.incl["engine.assemble_energy"],
        "jet_lifts": k3.n["jets.jet_lift"],
        "tree_walks": k3.n["expressions.evaluate"],
        "node_visits": k3.counts["node_visits"],
        "brentq_brackets": k3.n["engine.brentq"],
    }
    for order in (3,) + spans.TIMED_ORDERS:
        out[f"hierarchy_K{order}_s"] = spans.PassStats(tracers[f"K{order}"]).hierarchy(order)
    out["wavefunction_500_s"] = spans.PassStats(tracers["wavefunction"]).per_call(
        "wavefunction.synthesize_wavefunction")
    out["fd_oracle_s"] = spans.PassStats(tracers["fd"]).per_call("oracle.fd_ground_energy")
    return out


def run_traced(client, requests, seconds, spans_path: Path) -> dict:
    client.run_pass(requests)  # warm-up, as in the untraced run
    probe = list(PROBE.values())
    rounds, probe_rounds, untraced, traced = [], [], [], []
    layer_self = dict.fromkeys(spans.LAYERS, 0.0)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(rounds) < 2:
        untraced.append(client.run_pass(requests))

        work = [spans.Tracer(request=str(i)) for i in range(len(requests))]
        traced.append(client.run_pass(requests, tracer_for=work.__getitem__))

        probes = [spans.Tracer(request=f"probe:{name}") for name in PROBE]
        client.run_pass(probe, tracer_for=probes.__getitem__)

        if not rounds:
            spans.dump(spans_path, work + probes)
        work_stats = spans.PassStats(*work)
        rounds.append(spans.layer_metrics(work_stats, spans.PassStats(*probes)))
        probe_rounds.append(_probe_stages(dict(zip(PROBE, probes))))
        for layer in spans.LAYERS:
            layer_self[layer] += work_stats.layer_self[layer]

    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    untraced_e, untraced_s = map(sum, zip(*untraced))
    traced_e, traced_s = map(sum, zip(*traced))
    metrics["trace.overhead_ratio"] = (traced_e / traced_s) / (untraced_e / untraced_s)
    n = len(rounds) * len(requests)
    return {
        "metrics": metrics,
        "rounds": len(rounds),
        "probe": {k: statistics.median(r[k] for r in probe_rounds) for k in probe_rounds[0]},
        # the layers' self times add up to the traced request time; the
        # untraced request time is smaller by the tracing overhead
        "closure": {
            "layer_self_s": {layer: t / n for layer, t in layer_self.items()},
            "layer_self_sum_s": sum(layer_self.values()) / n,
            "traced_request_s": traced_s / n,
            "untraced_request_s": untraced_s / n,
        },
        "measured_s": time.perf_counter() - start,
    }


# ---------------------------------------------------------------------------
# environment record

def environment(seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "seed": seed,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------

def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out", help="result directory")
    args = parser.parse_args(argv)

    if not (SRC / "pslet2d" / "cli.py").is_file():
        print(f"benchmark error: no pslet2d sources under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    bench = load_benchmark()
    requests = workloads.generate(args.workload, args.seed)
    try:
        setup = measure_setup(requests[0].argv)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 4
    client = Client(workloads.load_published(ROOT))

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    if args.trace:
        result = run_traced(client, requests, args.seconds, args.out / f"{stem}-spans.jsonl")
        declared = bench["per_layer"]
    else:
        result = run_untraced(client, requests, args.seconds, workloads.HOST_MIX[args.workload])
        declared = bench["end_to_end"]
    result["metrics"]["setup_s"] = result["setup_s"] = statistics.median(setup)
    result["setup_runs_s"] = setup

    failed = client.failed
    attempted = len(client.outcomes)
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed),
        "correct": not failed, "attempted": attempted, "failed": len(failed),
        "error_rate": len(failed) / attempted,
        "failures": sorted({o.failure for o in failed})[:20],
        "metrics": metrics,
        **{k: v for k, v in result.items() if k != "metrics"},
    }
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {len(failed)}  error_rate {record['error_rate']:.4g} ratio")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if "host_speed" in result:
        print(f"  host speed {result['host_speed']:.4g} of the reference "
              f"({result['host_speed_samples']} timings); unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in result["raw"].items()))
    if "closure" in result:
        c = result["closure"]
        print(f"  closure: layer self times sum to {c['layer_self_sum_s'] * 1e3:.4g} ms/request, "
              f"traced request {c['traced_request_s'] * 1e3:.4g} ms, untraced "
              f"{c['untraced_request_s'] * 1e3:.4g} ms (ratio "
              f"{c['untraced_request_s'] / c['traced_request_s']:.3f})")
    for reason in record["failures"]:
        print(f"  failure: {reason}")
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
