"""One flow in a fresh process: the unit the flow benchmark times.

``run.py`` starts this script once per flow, one at a time.  The child
imports ``repro``, builds the benchmark's ``TechSetup``, stamps the
moment it is ready, runs exactly the call ``python -m repro flow``
makes (``run_benchmark_flow(get_benchmark(key), selector, seed=seed)``)
and prints one JSON line.

With ``--trace`` the child records spans of its own around calls into
each layer's public functions (see :data:`FUNCTIONS` and
:data:`METHODS`).  The wrappers are installed from outside: the
benchmark rebinds the attribute wherever ``repro`` binds it, and puts
every original back when the flow ends.  The program's own tracer
(``repro.obs.trace``) stays off.  Spans stay in memory; ``--spans``
writes them at the end in the ``repro.obs`` JSONL span format, so
``python -m repro trace report`` reads them.

Run by hand::

    python benchmarks/flow/child.py --benchmark a7_hetero \\
        --selector sota --seed 20250706 --trace
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import os
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from repro.core.dgi import DGIPretrainer  # noqa: E402
from repro.core.trainer import GnnMlsModel  # noqa: E402
from repro.harness.designs import get_benchmark  # noqa: E402
from repro.harness.tables import run_benchmark_flow  # noqa: E402
from repro.obs import metrics  # noqa: E402
from repro.obs.analyze import aggregate  # noqa: E402
from repro.route.router import GlobalRouter  # noqa: E402
from repro.timing.incremental import IncrementalSta  # noqa: E402

#: Span name -> dotted paths of the module-level functions it times.
#: Each function is rebound in every ``repro`` module that binds it,
#: so calls through ``from x import f`` copies are timed as well.
FUNCTIONS = {
    "flow.run_flow": ["repro.core.flow.run_flow"],
    "core.select_nets": ["repro.core.flow.select_nets"],
    "netlist.generate": ["repro.netlist.generators.maeri.generate_maeri",
                         "repro.netlist.generators.a7.generate_a7_dual_core"],
    "partition.memory_on_logic": [
        "repro.partition.memory_on_logic.partition_memory_on_logic"],
    "place.place_design": ["repro.place.placer.place_design"],
    "power.insert_level_shifters": [
        "repro.power.domains.insert_level_shifters"],
    "opt.insert_buffers": ["repro.opt.buffering.insert_buffers"],
    "power.estimate_power": ["repro.power.estimate.estimate_power"],
    "mls.route_with_mls": ["repro.mls.apply.route_with_mls"],
    "mls.sota_select": ["repro.mls.sota.sota_select"],
    "timing.build_timing_graph": ["repro.timing.graph.build_timing_graph"],
    "timing.extract_worst_paths": ["repro.timing.paths.extract_worst_paths"],
    "core.build_dataset": ["repro.core.pathset.build_dataset"],
    "core.train_gnn_mls": ["repro.core.trainer.train_gnn_mls"],
    "core.decide_mls_nets": ["repro.core.decide.decide_mls_nets"],
    "core.build_path_graph": ["repro.core.hypergraph.build_path_graph"],
    "pdn.size_pdn": ["repro.pdn.sizing.size_pdn"],
}

#: (span name, class, method) timed on the class itself.
METHODS = [
    ("route.route_all", GlobalRouter, "route_all"),
    ("timing.incremental_init", IncrementalSta, "__init__"),
    ("timing.update_routing", IncrementalSta, "update_routing"),
    ("core.dgi_pretrain", DGIPretrainer, "pretrain"),
    ("core.net_probabilities", GnnMlsModel, "net_probabilities"),
]

#: Root span around the whole ``run_benchmark_flow`` call.
ROOT_SPAN = "harness.run_benchmark_flow"

#: Benchmark-only span: the route-tree comparison behind
#: ``route.unchanged_ratio``.  It belongs to no layer.
COMPARE_SPAN = "bench.compare_routes"


class SpanRecorder:
    """In-memory spans in the ``repro.obs`` JSONL record format."""

    def __init__(self, flow_id: str):
        self.flow_id = flow_id
        self.records: list[dict] = []
        self._stack: list[str] = []
        self._seq = itertools.count(1)
        self._pid = os.getpid()

    @contextmanager
    def span(self, name: str, **attrs):
        span_id = f"{self._pid:x}-{next(self._seq):x}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        ts_us = time.time_ns() // 1000
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            dur_us = (time.perf_counter_ns() - t0) / 1000.0
            self._stack.pop()
            self.records.append({
                "name": name, "id": span_id, "parent": parent,
                "pid": self._pid, "ts_us": ts_us, "dur_us": dur_us,
                "attrs": {"flow": self.flow_id, **attrs}})

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _resolve(dotted: str):
    module, _, attr = dotted.rpartition(".")
    return getattr(importlib.import_module(module), attr)


def _bindings(fn) -> list[tuple[object, str]]:
    """Every (module, attribute) in ``repro`` that binds *fn*."""
    out = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            if value is fn:
                out.append((module, attr))
    return out


class RouteComparison:
    """Route-tree reuse across the full routes of one flow.

    After every ``route_all`` but the first, counts the nets whose
    ``RouteTree.edges`` equal the previous route's.
    """

    def __init__(self):
        self._previous: dict[str, list] | None = None
        self.routes = 0
        self.nets = 0
        self.unchanged = 0

    def observe(self, result) -> None:
        self.routes += 1
        edges = {name: list(tree.edges)
                 for name, tree in result.trees.items()}
        if self._previous is not None:
            self.nets += len(edges)
            self.unchanged += sum(
                1 for name, tree_edges in edges.items()
                if self._previous.get(name) == tree_edges)
        self._previous = edges

    @property
    def ratio(self) -> float:
        return self.unchanged / self.nets if self.nets else 1.0


@contextmanager
def instrument(recorder: SpanRecorder, routes: RouteComparison):
    """Wrap every target in a span for the duration of the block.

    Every original is put back on exit, even when the flow raises.
    """
    def timed(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with recorder.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def timed_route_all(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with recorder.span("route.route_all"):
                result = fn(*args, **kwargs)
            with recorder.span(COMPARE_SPAN):
                routes.observe(result)
            return result
        return wrapper

    replaced: list[tuple[object, str, object]] = []
    try:
        for name, paths in FUNCTIONS.items():
            for dotted in paths:
                fn = _resolve(dotted)
                wrapper = timed(name, fn)
                for module, attr in _bindings(fn):
                    replaced.append((module, attr, fn))
                    setattr(module, attr, wrapper)
        for name, cls, attr in METHODS:
            fn = vars(cls)[attr]
            replaced.append((cls, attr, fn))
            setattr(cls, attr, timed_route_all(fn)
                    if name == "route.route_all" else timed(name, fn))
        yield
    finally:
        for owner, attr, fn in reversed(replaced):
            setattr(owner, attr, fn)


def layer_times(records: list[dict]) -> dict[str, float]:
    """Self seconds per span name (span minus its child spans)."""
    out: dict[str, float] = {}
    for path, stat in aggregate(records).paths.items():
        name = path.rsplit("/", 1)[-1]
        out[name] = out.get(name, 0.0) + stat.self_us / 1e6
    return out


def _counters() -> dict[str, float]:
    return dict(metrics.snapshot()["counters"])


def run_one(benchmark: str, selector: str, seed: int, traced: bool,
            spans: Path | None = None) -> dict:
    """Run one flow in this process; the child's JSON payload."""
    spec = get_benchmark(benchmark)
    out: dict = {}
    if traced:
        before = _counters()
        recorder = SpanRecorder(f"{benchmark}/{selector}/{seed}")
        routes = RouteComparison()
        with instrument(recorder, routes):
            t0 = time.perf_counter()
            with recorder.span(ROOT_SPAN, benchmark=benchmark,
                               selector=selector, seed=seed):
                report = run_benchmark_flow(spec, selector, seed=seed)
            flow_s = time.perf_counter() - t0
        after = _counters()
        out["self_s"] = layer_times(recorder.records)
        out["counters"] = {name: value - before.get(name, 0)
                           for name, value in after.items()}
        out["route_all_calls"] = routes.routes
        out["unchanged_ratio"] = routes.ratio
        if spans is not None:
            recorder.write_jsonl(spans)
    else:
        t0 = time.perf_counter()
        report = run_benchmark_flow(spec, selector, seed=seed)
        flow_s = time.perf_counter() - t0
    row = report.row()
    # Wall-clock select time (select_runtime_s / 60): not reproducible.
    row.pop("runtime_min")
    out.update({
        "flow_s": flow_s,
        "row": row,
        "applied_subset": report.applied_mls <= report.requested_mls,
        "stages": {f"{name}_s": seconds
                   for name, seconds in report.stage_runtime_s.items()},
    })
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--benchmark", required=True)
    parser.add_argument("--selector", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once set up (set-up time samples)")
    args = parser.parse_args(argv)
    get_benchmark(args.benchmark).tech()
    # CLOCK_MONOTONIC is system-wide on Linux: the parent subtracts its
    # own launch stamp from this one to get the set-up time.
    out = {"ready": time.monotonic()}
    if not args.setup_only:
        out.update(run_one(args.benchmark, args.selector, args.seed,
                           args.trace, args.spans))
        out["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
