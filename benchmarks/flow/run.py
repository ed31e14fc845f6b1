"""Flow benchmark: the whole GNN-MLS flow, timed end to end and per layer.

    python benchmarks/flow/run.py --workload m128-none --seed 1 \\
        --seconds 30 --trace 0 [--out DIR]

One client in a closed loop: this process starts one ``child.py``
process per flow, one at a time, so every flow pays a cold start as a
CLI user does and no state carries over between flows.

A workload is one benchmark design and selector over a small, fixed
set of design seeds, each with its expected ``FlowReport.row()`` in
``expected.json``.

``--trace 0`` runs whole rounds over the designs, in an order drawn
from ``--seed``, and starts another round only if it should end within
``--seconds``.  It reports the end-to-end metrics:

* ``flow_s`` - median wall time of the ``run_benchmark_flow`` call;
* ``setup_s`` - median time from launching a child to it being ready
  (interpreter start, ``import repro``, ``TechSetup.build``), over at
  least :data:`MIN_SETUPS` children;
* ``peak_rss_mb`` - median peak resident set size of a flow's child.

``--trace 1`` runs the workload's first design (the paper's experiment
seed) untraced as often as fits, then once traced, and reports the
per-layer metrics in :data:`PER_LAYER`.

Every flow's row must equal its expected row and every other row of
the same design, and its applied MLS nets must be a subset of the
requested ones.  A flow that fails any check, or whose child exits
non-zero, counts as failed; the command then exits 1.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` flows, and ``metrics`` (name -> value,
unit).  ``--out DIR`` also writes the whole run (every flow, quartiles
and sample counts) to ``DIR/<workload>-seed<seed>-trace<t>.json`` and,
with ``--trace 1``, the traced flow's spans to
``DIR/<workload>-seed<seed>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected.json"


@dataclass(frozen=True)
class Workload:
    name: str
    benchmark: str
    selector: str
    #: Design seeds.  The first is the paper's experiment seed and is
    #: the one ``--trace 1`` runs.  Each set is small enough that a
    #: round fits a 30 s run on a 2-vCPU host.
    designs: tuple[int, ...]


WORKLOADS = {w.name: w for w in (
    # Selection is ~80 % of the flow: core/nn gains show here.
    Workload("m16-gnn", "maeri16_hetero", "gnn", (20250706, 2, 3)),
    # No selector work; two identical full routes, STA graph build and
    # placement dominate: route, timing and place gains show here.
    Workload("m128-none", "maeri128_hetero", "none",
             (20250706, 2, 3, 4, 5)),
    # Another fabric (8 BEOL layers); SOTA shares >1,000 nets, so the
    # MLS route keeps far fewer baseline trees than on m128-none.
    Workload("a7-sota", "a7_hetero", "sota", (20250706, 2, 3, 4)),
    # The paper's headline configuration at the largest size: DGI,
    # fine-tuning, four full routes and incremental STA updates.
    Workload("m128-gnn", "maeri128_hetero", "gnn", (20250706, 2)),
)}

END_TO_END = {"flow_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Flow stages from untraced ``FlowReport.stage_runtime_s`` (medians).
#: ``flow.refine`` runs for the gnn selector only, so it is left out;
#: its routes and inference show in the traced layer metrics.
STAGES = ("flow.prepare", "flow.route_baseline", "flow.sta_baseline",
          "flow.select", "flow.route_mls", "flow.power", "flow.pdn")

#: Layers, named after ``repro``'s modules.  ``<layer>.self_s`` sums
#: the self time of the layer's spans in the traced flow.  Every layer
#: is called on every workload, so none reads 0; selector-only
#: functions fold into their layer (core, mls, timing).
LAYERS = ("harness", "flow", "netlist", "partition", "place", "power",
          "opt", "route", "mls", "timing", "core", "pdn")

#: Single spans reported on their own (self time): the STA graph
#: build and the incremental update after each re-route.
SPANS = ("timing.build_timing_graph", "timing.update_routing")

#: Program counters (``repro.obs.metrics``) over the traced flow.
COUNTERS = ("place.factorizations", "place.level_solves",
            "route.nets_routed", "route.overflow_nets",
            "sta.inc.updates", "sta.inc.arcs_patched",
            "select.dgi.batches", "select.finetune.batches",
            "select.infer.graphs")

PER_LAYER = {
    **{f"{stage}_s": "s" for stage in STAGES},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{span}_s": "s" for span in SPANS},
    "route.route_all_calls": "count",
    **{name: "count" for name in COUNTERS},
    "route.unchanged_ratio": "ratio",
    "trace.overhead_pct": "%",
}

#: Children that must have set up in one run (setup-only children
#: top up workloads whose flows are too long to give that many).
MIN_SETUPS = 3

#: Hard cap on one invocation; a child still running then is killed.
RUN_LIMIT_S = 170.0

#: Traced flow wall time over untraced, used only to plan the run.
TRACE_COST = 1.3


class BenchError(Exception):
    """The run cannot produce its metrics."""


@dataclass
class Flow:
    """One child process: a flow, or a set-up sample when design is None."""

    design: int | None
    traced: bool
    wall_s: float
    setup_s: float | None = None
    out: dict | None = None
    error: str | None = None

    def record(self) -> dict:
        out = self.out or {}
        return {"design": self.design, "traced": self.traced,
                "wall_s": self.wall_s, "setup_s": self.setup_s,
                "flow_s": out.get("flow_s"),
                "peak_rss_mb": out.get("peak_rss_mb"),
                "row": out.get("row"), "error": self.error}


def run_child(workload: Workload, design: int | None, *, timeout: float,
              traced: bool = False, spans: Path | None = None) -> Flow:
    """Run ``child.py`` once; ``design=None`` only sets up."""
    cmd = [sys.executable, str(HERE / "child.py"),
           "--benchmark", workload.benchmark,
           "--selector", workload.selector,
           "--seed", str(workload.designs[0] if design is None else design)]
    if design is None:
        cmd.append("--setup-only")
    if traced:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    flow = Flow(design, traced, 0.0)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        flow.wall_s = time.monotonic() - t0
        flow.error = f"killed after {timeout:.0f} s"
        return flow
    flow.wall_s = time.monotonic() - t0
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        flow.error = f"exit {proc.returncode}: {tail[0]}"
        return flow
    try:
        flow.out = json.loads(proc.stdout.strip().splitlines()[-1])
        flow.setup_s = flow.out["ready"] - t0
    except (IndexError, KeyError, ValueError):
        flow.error = "no JSON result line"
    return flow


def check(flows: list[Flow], expected: dict[str, dict]) -> None:
    """Mark each flow whose output is wrong (sets ``Flow.error``)."""
    first: dict[int, dict] = {}
    for flow in flows:
        if flow.design is None or flow.error is not None:
            continue
        row = flow.out["row"]
        want = expected.get(str(flow.design))
        if not flow.out["applied_subset"]:
            flow.error = "applied MLS nets are not a subset of requested"
        elif want is not None and row != want:
            flow.error = "row differs from expected.json: " + _diff(row, want)
        elif row != first.setdefault(flow.design, row):
            flow.error = ("row differs from another flow of design "
                          f"{flow.design}: " + _diff(row, first[flow.design]))


def _diff(got: dict, want: dict) -> str:
    keys = sorted(k for k in got.keys() | want.keys()
                  if got.get(k) != want.get(k))
    return ", ".join(f"{k}={got.get(k)!r} (want {want.get(k)!r})"
                     for k in keys)


def summary(values: list[float]) -> dict:
    """Median, quartiles and count of one metric's samples."""
    if not values:
        raise BenchError("no successful sample")
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (median, median, median)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


class Run:
    """One invocation: children launched so far against a deadline."""

    def __init__(self, workload: Workload, seconds: float):
        self.workload = workload
        self.start = time.monotonic()
        self.deadline = self.start + seconds
        self.flows: list[Flow] = []

    def child(self, design: int | None, **kwargs) -> Flow:
        remaining = self.start + RUN_LIMIT_S - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        flow = run_child(self.workload, design, timeout=remaining, **kwargs)
        self.flows.append(flow)
        return flow

    def fits(self, seconds: float) -> bool:
        return time.monotonic() + seconds <= self.deadline

    def top_up_setups(self) -> None:
        while sum(f.setup_s is not None for f in self.flows) < MIN_SETUPS:
            if self.child(None).error is not None:
                raise BenchError(f"set-up failed: {self.flows[-1].error}")

    def run_rounds(self, rng: random.Random) -> None:
        """Whole rounds over the designs while the next should fit."""
        while True:
            t0 = time.monotonic()
            for design in rng.sample(self.workload.designs,
                                     len(self.workload.designs)):
                self.child(design)
            if not self.fits(time.monotonic() - t0):
                break
        self.top_up_setups()

    def run_traced(self, spans: Path | None) -> None:
        """The first design untraced while room is left, then traced."""
        design = self.workload.designs[0]
        while True:
            self.child(design)
            est = statistics.median(f.wall_s for f in self.flows)
            if not self.fits(est + TRACE_COST * est):
                break
        self.child(design, traced=True, spans=spans)

    def end_to_end(self) -> dict[str, dict]:
        ok = self.ok_flows()
        return {
            "flow_s": summary([f.out["flow_s"] for f in ok]),
            "setup_s": summary([f.setup_s for f in self.flows
                                if f.setup_s is not None]),
            "peak_rss_mb": summary([f.out["peak_rss_mb"] for f in ok]),
        }

    def per_layer(self) -> dict[str, dict]:
        traced = self.flows[-1]
        untraced = [f for f in self.ok_flows() if not f.traced]
        if traced.error is not None or not untraced:
            raise BenchError("no correct traced and untraced flow")
        out = traced.out
        values = {f"{s}_s": summary([f.out["stages"][f"{s}_s"]
                                     for f in untraced]) for s in STAGES}
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(
                seconds for name, seconds in out["self_s"].items()
                if name.split(".", 1)[0] == layer)
        for span in SPANS:
            values[f"{span}_s"] = out["self_s"].get(span, 0.0)
        values["route.route_all_calls"] = out["route_all_calls"]
        for name in COUNTERS:
            values[name] = out["counters"].get(name, 0)
        values["route.unchanged_ratio"] = out["unchanged_ratio"]
        base = statistics.median(f.out["flow_s"] for f in untraced)
        values["trace.overhead_pct"] = 100.0 * (out["flow_s"] / base - 1.0)
        return {name: value if isinstance(value, dict) else {"value": value}
                for name, value in values.items()}

    def ok_flows(self) -> list[Flow]:
        return [f for f in self.flows
                if f.design is not None and f.error is None]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the GNN-MLS flow end to end and per layer.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the workload's designs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for the run record and spans")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text())[workload.name]
    spans = None
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        spans = args.out / f"{workload.name}-seed{args.seed}.spans.jsonl"
    return measure(workload, args.seed, args.seconds, bool(args.trace),
                   expected, args.out, spans if args.trace else None)


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            expected: dict[str, dict], out_dir: Path | None = None,
            spans: Path | None = None) -> int:
    """Run, check, print and record one workload; the exit code."""
    run = Run(workload, seconds)
    units = PER_LAYER if trace else END_TO_END
    try:
        if trace:
            run.run_traced(spans)
        else:
            run.run_rounds(random.Random(seed))
        check(run.flows, expected)
        values = run.per_layer() if trace else run.end_to_end()
    except BenchError as exc:
        _report_failures(run.flows)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    flows = [f for f in run.flows if f.design is not None]
    failed = [f for f in flows if f.error is not None]
    _report_failures(failed)
    metrics = {name: {**values[name], "unit": unit}
               for name, unit in units.items()}

    print(f"{workload.name}: {workload.benchmark} / {workload.selector}, "
          f"seed {seed}, {len(flows)} flows, "
          f"{sum(f.setup_s is not None for f in run.flows)} set-ups, "
          f"{time.monotonic() - run.start:.1f} s")
    for name, m in metrics.items():
        spread = f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']})" \
            if "n" in m else ""
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}{spread}")
    for design, row in sorted({f.design: f.out["row"] for f in flows
                               if f.error is None}.items()):
        print(f"  design {design}: wns_ps {row['wns_ps']:.3f}, "
              f"tns_ns {row['tns_ns']:.4f}, vio_paths {row['vio_paths']}, "
              f"mls_nets {row['mls_nets']}")
    result = {"correct": not failed, "attempted": len(flows),
              "failed": len(failed),
              "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                          for name, m in metrics.items()}}
    if out_dir is not None:
        record = {"workload": workload.name, "benchmark": workload.benchmark,
                  "selector": workload.selector, "seed": seed,
                  "seconds": seconds, "trace": int(trace), **result,
                  "metrics": metrics,
                  "flows": [f.record() for f in run.flows],
                  "spans": spans.name if spans is not None else None}
        path = out_dir / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 1 if failed else 0


def _report_failures(flows: list[Flow]) -> None:
    for flow in flows:
        if flow.error is not None:
            kind = "set-up" if flow.design is None else f"design {flow.design}"
            traced = " (traced)" if flow.traced else ""
            print(f"FAILED {kind}{traced}: {flow.error}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
