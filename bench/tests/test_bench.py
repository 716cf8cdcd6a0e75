"""Self-checks of the benchmark harness.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def published():
    return workloads.load_published(run.ROOT)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_runs_the_same_mix(workload):
    def mix(seed):  # the requests with their drawn values (g=..., grids, ranges) left out
        return sorted(tuple(a for a in req.argv if not a.startswith("g=") and "," not in a)
                      for req in workloads.generate(workload, seed))
    assert mix(1) == mix(2)


def _traced_counts(workload, seed, published):
    client = run.Client(published)
    requests = workloads.generate(workload, seed)
    tracers = [spans.Tracer(request=str(i)) for i in range(len(requests))]
    client.run_pass(requests, tracer_for=tracers.__getitem__)
    assert not client.failed
    metrics = spans.layer_metrics(spans.PassStats(*tracers), spans.PassStats())
    units = {m["name"]: m["unit"] for m in run.load_benchmark()["per_layer"]}
    return {k: v for k, v in metrics.items() if units[k] == "count"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_counts(workload, published):
    first = _traced_counts(workload, 3, published)
    assert first["jets.jet_lifts"] > 0 and first["expressions.node_visits"] > 0
    assert _traced_counts(workload, 3, published) == first


def test_tracer_restores_every_binding():
    from pslet2d import cli, engine, expressions, jets, tables

    before = [cli.solve, tables.solve, engine.solve_geometry, engine.brentq,
              engine.jet_lift, jets.evaluate, expressions.evaluate]
    with spans.Tracer().installed():
        assert cli.solve is not before[0]
        assert jets.evaluate is expressions.evaluate
    after = [cli.solve, tables.solve, engine.solve_geometry, engine.brentq,
             engine.jet_lift, jets.evaluate, expressions.evaluate]
    assert after == before


def test_self_times_partition_the_request():
    # a request span with one child that itself has a child
    trace = [("cli.main", 0.0, 10.0, -1, "r", False, None),
             ("engine.solve", 1.0, 7.0, 0, "r", False, None),
             ("jets.jet_lift", 2.0, 3.0, 1, "r", False, None)]
    own = spans.self_times(trace)
    assert own == [4.0, 5.0, 1.0]
    assert sum(own) == 10.0


def test_injected_failing_request_is_counted(published, monkeypatch):
    monkeypatch.setattr(run, "MIN_REQUESTS", 4)
    good = workloads.generate("high_order", 1)[0]
    bad = workloads.Request(("compute", "-V", "-2/rho +", "-m", "0", "--format", "json"), ("energy", None))
    client = run.Client(published)
    result = run.run_untraced(client, [good, bad], seconds=0.0, host_mix={"interpreter": 1.0})
    assert len(client.outcomes) >= 6
    assert len(client.failed) == len(client.outcomes) // 2
    assert all("exit code 3" in o.failure for o in client.failed)
    # a failed request misses every latency limit instead of being dropped
    assert math.isinf(result["metrics"]["request_p90_ms"])


def test_bad_output_fails_the_check(published):
    req = workloads.generate("sweep_oracle", 1)[0]
    good = "g,rho0,EN0,EN1,EN2,EN3,fd,error\n1,0.5,-3.9,-3.9,-3.9,-3.91,-3.90,\n"
    assert workloads.check(req, good, published)[0] == 1
    with pytest.raises(workloads.CheckError):
        workloads.check(req, good.replace("-3.91", "nan"), published)
    with pytest.raises(workloads.CheckError):
        workloads.check(req, good.replace("-3.90,", "-3.90,no stable frame"), published)


def test_compare_marks_regressions_and_claims():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    assert compare.verdict(parent, [v * 1.01 for v in parent], "lower", 0.1) == "unchanged"
    assert compare.verdict(parent, [v * 1.3 for v in parent], "lower", 0.1) == "regressed"
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 100.0, 70.0, 130.0, 90.0, 110.0]
    assert compare.verdict(parent, noisy, "lower", 0.1) == "unresolved"
    met, _ = compare.claim(dict(enumerate(parent)), {i: v / 2 for i, v in enumerate(parent)}, "lower")
    assert met
    met, _ = compare.claim(dict(enumerate(parent)), {i: v * 0.999 for i, v in enumerate(parent)}, "lower")
    assert not met


def test_host_speed_scales_to_the_reference(monkeypatch):
    import hostspeed

    # the lapack kernel at half speed slows three quarters of the mix
    refs = {name: ref for name, (_, ref) in hostspeed.KERNELS.items()}
    clock = iter([0.0, refs["interpreter"], 0.0, refs["lapack"],
                  0.0, refs["interpreter"], 0.0, 2 * refs["lapack"]])
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: next(clock))
    meter = hostspeed.Meter({"interpreter": 0.25, "lapack": 0.75}, warmup=0)
    meter.sample()
    meter.sample()
    assert meter.speed(0) == pytest.approx(1.0)
    assert meter.speed(1) == pytest.approx(1 / (0.25 + 0.75 * 2))
    assert meter.speed(5) == meter.speed(1)  # past the last timing: the last one
    assert meter.speed(0, reach=1) == meter.speed() == pytest.approx(2 / (1 + 1.75))


def test_meter_times_at_least_once():
    import hostspeed

    meter = hostspeed.Meter({"interpreter": 1.0}, warmup=0)
    assert meter.samples == 0 and meter.speed(3) > 0 and meter.samples == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_has_a_host_mix(workload):
    assert sum(workloads.HOST_MIX[workload].values()) == pytest.approx(1.0)
