"""Span tracing for the benchmark's traced run.

The tracer records spans from outside the package: while ``installed`` it
replaces the module attributes through which ``pslet2d`` code reaches each
layer's entry points (every binding a caller resolves, e.g. both
``cli.solve`` and ``tables.solve``) with wrappers, and puts the originals back
on exit.  Nothing under ``src/`` changes.

A span is (name, start, end, parent index, request id, failed, tag).  Spans
stay in memory; self times are derived afterwards as a span's duration minus
the durations of its direct children.  Every span's name starts with its
layer, one of the seven ``pslet2d`` modules.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "expressions", "jets", "engine", "wavefunction", "oracle", "tables")
TIMED_ORDERS = (6, 10, 15)


class Tracer:
    def __init__(self, request=None):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = request
        self._stack: list[int] = []
        self._eval_depth = 0

    def call(self, name, fn, *args, tag=None, on_result=None, **kwargs):
        """Run ``fn`` inside a span called ``name``.

        ``on_result`` sees the return value; when it returns true the span is
        marked failed although ``fn`` did not raise.
        """
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        failed = True
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.request, failed, tag)
        if on_result is not None and on_result(result):
            self.spans[idx] = self.spans[idx][:5] + (True, tag)
        return result

    def span(self, name, fn, tag_of=None, on_result=None):
        def wrapper(*args, **kwargs):
            tag = tag_of(args, kwargs) if tag_of else None
            return self.call(name, fn, *args, tag=tag, on_result=on_result, **kwargs)
        return wrapper

    def evaluator(self, fn):
        """Wrap ``evaluate``: a span per tree walk, a count per node visit."""
        def wrapper(*args, **kwargs):
            self.counts["node_visits"] += 1
            depth = self._eval_depth
            self._eval_depth = depth + 1
            try:
                if depth:
                    return fn(*args, **kwargs)
                return self.call("expressions.evaluate", fn, *args, **kwargs)
            finally:
                self._eval_depth = depth
        return wrapper

    def counter(self, key, fn, amount):
        def wrapper(*args, **kwargs):
            self.counts[key] += amount(args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers into the ``pslet2d`` modules for the block's duration."""
        from pslet2d import cli, engine, expressions, jets, oracle, tables, wavefunction

        def accepted(result):
            if result is not None:
                self.counts["frames_accepted"] += 1

        evaluate = self.evaluator(expressions.evaluate)
        plan = [
            (expressions, "evaluate", evaluate),
            (jets, "evaluate", evaluate),
            (wavefunction.WavefunctionSeries, "unnormalized",
             self.counter("samples", wavefunction.WavefunctionSeries.unnormalized,
                          lambda a, k: _size(a[1]))),
            (oracle, "eigvalsh_tridiagonal",
             self.span("oracle.eigvalsh_tridiagonal", oracle.eigvalsh_tridiagonal,
                       tag_of=lambda a, k: len(a[0]))),
            (engine, "_finish_frame",
             self.span("engine.finish_frame", engine._finish_frame, on_result=accepted)),
            (engine, "solve_hierarchy",
             self.span("engine.solve_hierarchy", engine.solve_hierarchy,
                       tag_of=lambda a, k: a[2] if len(a) > 2 else k["max_order"])),
        ]
        bindings = {
            "expressions.parse_potential": [(expressions, "parse_potential"), (cli, "parse_potential"),
                                            (tables, "parse_potential")],
            "expressions.bind_params": [(expressions, "bind_params"), (cli, "bind_params"),
                                        (tables, "bind_params")],
            "jets.jet_lift": [(jets, "jet_lift"), (engine, "jet_lift")],
            "engine.solve": [(engine, "solve"), (cli, "solve"), (tables, "solve")],
            "engine.solve_geometry": [(engine, "solve_geometry")],
            "engine.brentq": [(engine, "brentq")],
            "engine.build_v_series": [(engine, "build_v_series")],
            "engine.assemble_energy": [(engine, "assemble_energy")],
            "wavefunction.synthesize_wavefunction": [(wavefunction, "synthesize_wavefunction"),
                                                     (cli, "synthesize_wavefunction")],
            "wavefunction.simpson": [(wavefunction, "simpson")],
            "oracle.fd_ground_energy": [(oracle, "fd_ground_energy"), (cli, "fd_ground_energy")],
            "tables.run_preset": [(tables, "run_preset")],
            "tables.solve_hybrid": [(tables, "solve_hybrid")],
            "tables.load_published_values": [(tables, "load_published_values")],
        }
        for name, sites in bindings.items():
            owner, attr = sites[0]
            wrapper = self.span(name, getattr(owner, attr))
            plan += [(mod, a, wrapper) for mod, a in sites]

        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in plan]
        try:
            for owner, attr, wrapper in plan:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)


def dump(path, tracers) -> None:
    """Write the spans of ``tracers`` as JSON lines; ``parent`` indexes within a request."""
    with open(path, "w", encoding="utf-8") as fh:
        for tracer in tracers:
            for i, (name, start, end, parent, request, failed, tag) in enumerate(tracer.spans):
                fh.write(json.dumps({"request": request, "id": i, "parent": parent, "name": name,
                                     "start": start, "end": end, "failed": failed, "tag": tag}) + "\n")


def _size(rho) -> int:
    return getattr(rho, "size", 1)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class PassStats:
    """Aggregates over the spans and counters of one or more tracers."""

    def __init__(self, *tracers: Tracer):
        self.n = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.failed = Counter()
        self.by_tag = defaultdict(list)
        self.tag_sum = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.layer_calls = Counter()
        self.counts = Counter()
        for tracer in tracers:
            self.add(tracer)

    def add(self, tracer: Tracer) -> None:
        for (name, start, end, _, _, failed, tag), own in zip(tracer.spans, self_times(tracer.spans)):
            layer = name.split(".", 1)[0]
            self.n[name] += 1
            self.incl[name] += end - start
            self.self_s[name] += own
            self.layer_self[layer] += own
            self.layer_calls[layer] += 1
            if failed:
                self.failed[layer] += 1
            if tag is not None:
                self.by_tag[(name, tag)].append(own)
                self.tag_sum[name] += tag
        self.counts.update(tracer.counts)

    @property
    def requests(self) -> int:
        return self.n["cli.main"]

    @property
    def solves(self) -> int:
        return self.n["engine.solve"]

    def per_call(self, name: str) -> float | None:
        """Mean inclusive time of the spans called ``name``."""
        calls = self.n[name]
        return self.incl[name] / calls if calls else None

    def hierarchy(self, order: int) -> float | None:
        samples = self.by_tag[("engine.solve_hierarchy", order)]
        return sum(samples) / len(samples) if samples else None


def layer_metrics(work: PassStats, probe: PassStats) -> dict[str, float]:
    """Per-layer metrics of one traced pass of the workload.

    Per-solve and per-request figures come from the workload's own spans.
    The per-call figures of stages only some workloads reach (hierarchy at
    K = 6/10/15, wavefunction, oracle, table preset) come from the
    workload's calls when it makes any, else from the fixed probe requests.
    """
    req, solves = work.requests, max(work.solves, 1)

    def per_call(name):
        for s in (work, probe):
            v = s.per_call(name)
            if v is not None:
                return v, s
        return 0.0, work

    m = {
        "expressions.parse_s": (work.incl["expressions.parse_potential"]
                                + work.incl["expressions.bind_params"]) / req,
        "expressions.tree_walks": work.n["expressions.evaluate"] / solves,
        "expressions.node_visits": work.counts["node_visits"] / solves,
        "jets.jet_lifts": work.n["jets.jet_lift"] / solves,
        "jets.jet_lift_s": work.incl["jets.jet_lift"] / solves,
        "engine.geometry_s": sum(work.self_s[n] for n in (
            "engine.solve_geometry", "engine.brentq", "engine.finish_frame")) / solves,
        "engine.frame_brackets": work.n["engine.brentq"] / solves,
        "engine.frame_yield": work.counts["frames_accepted"] / max(work.n["engine.brentq"], 1),
        "engine.v_series_s": work.self_s["engine.build_v_series"] / solves,
        "engine.assemble_s": work.self_s["engine.assemble_energy"] / solves,
    }
    for order in TIMED_ORDERS:
        v = work.hierarchy(order)
        m[f"engine.hierarchy_s.K{order}"] = v if v is not None else (probe.hierarchy(order) or 0.0)
    synth, s = per_call("wavefunction.synthesize_wavefunction")
    m["wavefunction.synthesize_s"] = synth
    calls = s.n["wavefunction.synthesize_wavefunction"] or 1
    m["wavefunction.norm_passes"] = s.n["wavefunction.simpson"] / calls
    m["wavefunction.samples"] = s.counts["samples"] / calls
    fd, s = per_call("oracle.fd_ground_energy")
    m["oracle.fd_s"] = fd
    calls = s.n["oracle.fd_ground_energy"] or 1
    m["oracle.eigensolves"] = s.n["oracle.eigvalsh_tridiagonal"] / calls
    m["oracle.cells"] = s.tag_sum["oracle.eigvalsh_tridiagonal"] / calls
    m["tables.run_preset_s"] = per_call("tables.run_preset")[0]
    m["cli.self_s"] = work.self_s["cli.main"] / req
    for layer in LAYERS:
        m[f"{layer}.calls"] = work.layer_calls[layer] / req
        m[f"{layer}.failed"] = work.failed[layer] / req
    return m
