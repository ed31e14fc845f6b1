"""The end-to-end GNN-MLS design flow (Figure 4).

One call runs: generate -> partition (memory-on-logic) -> place ->
level shifters (mixed-node) -> optional scan insertion -> repeater
buffering -> baseline no-MLS routing + STA -> MLS net selection
(none / SOTA / GNN / oracle / random) -> targeted routing -> final
STA -> optional MLS DFT + die-test fault simulation -> power + PDN.
The :class:`FlowReport` carries every number Tables IV-VI print.
"""

from __future__ import annotations

import gc
import math
import threading
import time
from contextlib import ContextDecorator, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.obs import metrics, trace

from repro.design import Design, TechSetup
from repro.errors import FlowError
from repro.netlist.netlist import Netlist
from repro.opt.buffering import insert_buffers
from repro.partition import partition_memory_on_logic
from repro.place import place_design
from repro.power import (default_power_plan, estimate_power,
                         insert_level_shifters, PowerReport)
from repro.pdn.sizing import PdnSizingResult, size_pdn
from repro.route.router import GlobalRouter
from repro.mls import oracle_select, route_with_mls, sota_select
from repro.mls.oracle import candidate_nets
from repro.timing import IncrementalSta, run_sta
from repro.timing.sta import TimingReport
from repro.rng import stream
from repro.core.decide import DEFAULT_THRESHOLD, decide_mls_nets
from repro.core.pathset import build_dataset
from repro.core.trainer import TrainConfig, train_gnn_mls

#: Netlist factory signature: (libraries, seed) -> Netlist.
NetlistFactory = Callable[[dict, int], Netlist]

#: Prepare signature: (factory, tech, seed, config) -> Design.
PrepareFn = Callable[[NetlistFactory, TechSetup, int, "FlowConfig"],
                     Design]

SELECTORS = ("none", "sota", "gnn", "oracle", "random")

DFT_STRATEGIES = ("net-based", "wire-based")

#: After routing the first GNN selection, re-extract the now-worst
#: paths and re-infer, growing the set — covers nets that only become
#: critical once the original offenders are fixed.
GNN_REFINE_ITERS = 2

#: Die-test fault simulation: random patterns, and the cap on exactly
#: simulated faults (stride-sampled beyond).
DFT_PATTERNS = 256
DFT_MAX_FAULTS = 30000


@dataclass(frozen=True)
class FlowConfig:
    """Flow knobs for one run."""

    selector: str = "gnn"
    target_freq_mhz: float = 1500.0
    num_paths: int = 1500
    num_labeled: int = 500
    with_scan: bool = False
    dft_strategy: Optional[str] = None      # "net-based"/"wire-based"
    train: TrainConfig = field(default_factory=TrainConfig)
    pdn: bool = True
    activity: float = 0.15

    def __post_init__(self) -> None:
        if self.selector not in SELECTORS:
            raise FlowError(f"unknown selector {self.selector!r}; "
                            f"choose from {SELECTORS}")
        if self.dft_strategy is not None \
                and self.dft_strategy not in DFT_STRATEGIES:
            raise FlowError(f"unknown DFT strategy {self.dft_strategy!r}; "
                            f"choose from {DFT_STRATEGIES}")
        if self.dft_strategy is not None and not self.with_scan:
            raise FlowError("MLS DFT needs with_scan=True")
        # Comparisons with NaN are False, so NaN fails each range.
        if not 0.0 < self.target_freq_mhz < math.inf:
            raise FlowError("target_freq_mhz must be a finite number "
                            f"> 0, got {self.target_freq_mhz!r}")
        if self.num_paths < 1:
            raise FlowError(f"num_paths must be >= 1, "
                            f"got {self.num_paths!r}")
        if not 1 <= self.num_labeled <= self.num_paths:
            raise FlowError(f"num_labeled must be in [1, num_paths="
                            f"{self.num_paths}], got {self.num_labeled!r}")
        if not 0.0 < self.activity <= 1.0:
            raise FlowError(f"activity must be in (0, 1], "
                            f"got {self.activity!r}")


@dataclass
class FlowReport:
    """Everything a table row needs, plus the live objects."""

    design: Design
    config: FlowConfig
    baseline_sta: TimingReport
    final_sta: TimingReport
    requested_mls: set[str]
    applied_mls: set[str]
    wirelength_m: float
    power: PowerReport
    pdn: Optional[PdnSizingResult]
    #: Selector + GNN-refine wall time only — the paper's Table V
    #: "Run-Time (min)" column (as ``runtime_min`` in :meth:`row`, the
    #: row's one wall-clock value; :meth:`result_row` drops it).
    select_runtime_s: float
    #: Whole-flow wall time: this call's prepare (a build, a copy of
    #: a shared design or a store hit) through PDN.  Wall-clock, so not
    #: part of :meth:`row`.
    runtime_s: float = 0.0
    #: Per-stage wall time keyed by flow span name ("flow.prepare",
    #: "flow.select", ...).  Same wall-clock caveat as ``runtime_s``.
    stage_runtime_s: dict[str, float] = field(default_factory=dict)
    coverage_pct: Optional[float] = None
    total_faults: Optional[int] = None
    detected_faults: Optional[int] = None
    model: object = None

    def row(self) -> dict[str, float]:
        """Flat metric dict, the currency of the benchmark tables."""
        sta = self.final_sta
        out = {
            "target_freq_mhz": self.design.target_freq_mhz,
            "wirelength_m": self.wirelength_m,
            "wns_ps": sta.wns_ps,
            "tns_ns": sta.tns_ns,
            "vio_paths": sta.num_violating,
            "mls_nets": len(self.applied_mls),
            "runtime_min": self.select_runtime_s / 60.0,
            "power_mw": self.power.total_mw,
            "ls_power_mw": self.power.level_shifter_mw,
            "eff_freq_mhz": sta.effective_freq_mhz(),
        }
        if self.pdn is not None:
            out["ir_drop_pct"] = self.pdn.worst_drop_pct
            out["pdn_width_um"] = self.pdn.config.width_um
            out["pdn_pitch_um"] = self.pdn.config.pitch_um
            out["pdn_util_pct"] = 100.0 * self.pdn.config.utilization
        if self.coverage_pct is not None:
            out["coverage_pct"] = self.coverage_pct
            out["total_faults"] = self.total_faults
            out["detected_faults"] = self.detected_faults
        return out

    def result_row(self) -> dict[str, float]:
        """:meth:`row` without its wall-clock ``runtime_min``: the
        values a seeded flow reproduces bit for bit."""
        out = self.row()
        del out["runtime_min"]
        return out


class _CollectorPause(ContextDecorator):
    """The process's one pause of the cyclic garbage collector: a
    depth counter under a lock (see :func:`collector_paused`)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._resume = False

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._resume = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._resume:
                gc.enable()


_COLLECTOR_PAUSE = _CollectorPause()


def collector_paused() -> _CollectorPause:
    """Pause CPython's cyclic garbage collector (re-entrant and
    thread-safe); use as a ``with`` block or a decorator.

    ``repro.harness.tables.run_benchmark_flows`` holds it, which covers
    ``repro flow`` (with or without ``--store``), the flow benchmark
    and every table and figure builder, and the daemon holds it around
    each job.  A running flow leaves no unreachable cycles: all it
    builds is still reachable from its report when it returns
    (``tests/test_flow_gc.py``), so the collections it used to run
    freed nothing, yet on MAERI-128 they walked ~280 K live objects
    about 500 times per flow.  The design itself is cyclic (a pin
    points to its net and its owner, which point back), so once its
    report is dropped the design is garbage that only the collector
    frees.  The deferred cost is the first automatic collection after
    the pause, which walks the flow's surviving objects once.

    The collector is process state, so the pause is too: the outermost
    entry, in any thread, records ``gc.isenabled()`` and disables the
    collector, and the outermost exit restores that state, also when
    the body raises.  The pause itself never collects.  Its callers
    settle the deferred pass: the daemon runs one ``gc.collect()``
    after each job that held a report, once the report is gone (a
    pause alone kept every dropped design of a backlog alive, about
    51 MB per cold MAERI-128 job), and the one-shot CLI commands
    ``gc.freeze()`` what their flow left, since the process exits
    soon after.
    """
    return _COLLECTOR_PAUSE


@contextmanager
def _stage(name: str, stages: dict[str, float], **attrs):
    """One flow stage: a trace span plus an always-on wall-time entry
    in *stages* (the FlowReport.stage_runtime_s breakdown)."""
    with trace.span(name, **attrs):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            stages[name] = stages.get(name, 0.0) \
                + time.perf_counter() - t0


def stage_generate(factory: NetlistFactory, tech: TechSetup,
                   seed: int) -> Netlist:
    """Prepare stage 1: build (or import) the netlist.

    Pure in (factory, tech libraries, seed): the generators draw only
    from their own named seed streams, so skipping this stage — e.g.
    restoring its artifact from the service store — leaves every later
    stage's randomness untouched.
    """
    with trace.span("prepare.generate"):
        return factory(tech.libraries, seed)


def stage_partition(netlist: Netlist):
    """Prepare stage 2: memory-on-logic tier assignment (pure)."""
    with trace.span("prepare.partition"):
        return partition_memory_on_logic(netlist)


def stage_place(netlist: Netlist, tiers):
    """Prepare stage 3: placement; returns (placement, floorplan).

    Deterministic in (netlist, tiers) and independent of every
    ``FlowConfig`` field — nothing here reads the clock target, so
    frequency and scan sweeps share one placement artifact.
    """
    with trace.span("prepare.place"):
        return place_design(netlist, tiers)


def stage_finish(design: Design, config: FlowConfig) -> Design:
    """Prepare stages 4-6: level shifters, optional scan, buffering.

    Mutates and returns *design*; the first stage that depends on the
    target frequency (buffer sizing reads the clock period)."""
    with trace.span("prepare.level_shifters"):
        plan = default_power_plan(design)
        insert_level_shifters(design, plan)
    if config.with_scan:
        from repro.dft.scan import insert_scan
        with trace.span("prepare.scan"):
            insert_scan(design)
    with trace.span("prepare.buffer"):
        insert_buffers(design)
    return design


def prepare_design(factory: NetlistFactory, tech: TechSetup,
                   seed: int, config: FlowConfig) -> Design:
    """Stages shared by every selector: generate through buffering."""
    netlist = stage_generate(factory, tech, seed)
    design = Design(netlist, tech, config.target_freq_mhz)
    design.tiers = stage_partition(netlist)
    design.placement, design.floorplan = stage_place(netlist, design.tiers)
    return stage_finish(design, config)


def select_nets(design: Design, router: GlobalRouter, baseline,
                report: TimingReport, seed: int,
                config: FlowConfig) -> tuple[set[str], float, object]:
    """Run the configured selector; returns (nets, runtime_s, model)."""
    start = time.perf_counter()
    model = None
    if config.selector == "none":
        nets: set[str] = set()
    elif config.selector == "sota":
        nets = sota_select(design, baseline)
    elif config.selector == "oracle":
        nets = oracle_select(design, router, baseline)
    elif config.selector == "random":
        rng = stream("random-selector", seed)
        pool = [n.name for n in candidate_nets(design)]
        take = max(1, len(pool) // 5)
        nets = set(rng.choice(pool, size=min(take, len(pool)),
                              replace=False).tolist())
    else:  # gnn
        dataset = build_dataset(design, router, baseline, report,
                                num_paths=config.num_paths,
                                num_labeled=config.num_labeled)
        model = train_gnn_mls(dataset, seed, config.train)
        nets = decide_mls_nets(model)
    return nets, time.perf_counter() - start, model


def run_flow(factory: NetlistFactory, tech: TechSetup,
             seed: int, config: FlowConfig,
             prepare: PrepareFn = prepare_design) -> FlowReport:
    """Run the complete flow for one (design, selector) combination.

    A pure function of (factory, tech, seed, config): every random draw
    comes from a :func:`repro.rng.stream` of *seed*.  *prepare* builds
    the design inside the ``flow.prepare`` stage, so ``runtime_s`` and
    ``stage_runtime_s["flow.prepare"]`` count what this call paid for
    it: a build with :func:`prepare_design`, an unpickled copy of a
    design shared across the selectors of
    :func:`repro.harness.tables.run_benchmark_flows` (its first flow
    pays the build plus the pickle), a store read or a resumed build
    with :func:`repro.service.stages.prepare_design_stored`.
    """
    stages: dict[str, float] = {}
    t_flow = time.perf_counter()
    with trace.span("flow", selector=config.selector,
                    scan=config.with_scan):
        with _stage("flow.prepare", stages):
            design = prepare(factory, tech, seed, config)

        with _stage("flow.route_baseline", stages):
            router, baseline = route_with_mls(design, set())
        # The pin graph's structure is routing-invariant: build it once,
        # then patch arc delays incrementally after every reroute instead
        # of re-running full STA (the refine loop's former hot spot).
        with _stage("flow.sta_baseline", stages):
            timing = IncrementalSta(design)
            base_report = timing.report()

        with _stage("flow.select", stages, selector=config.selector):
            requested, runtime_s, model = select_nets(
                design, router, baseline, base_report, seed, config)

        # Every later route replays the one before it (differential
        # route), and the STA then patches only the nets that moved.
        with _stage("flow.route_mls", stages, nets=len(requested)):
            router, routing = route_with_mls(design, requested,
                                             previous=baseline)
            # Replayed: nothing reads the baseline result again, and
            # the STA lets go of it once it has synced to *routing*.
            del baseline
            final_report = timing.update_routing()

        if config.selector == "gnn" and model is not None:
            from repro.core.hypergraph import build_path_graph
            from repro.timing.paths import extract_worst_paths
            with _stage("flow.refine", stages):
                start = time.perf_counter()
                for _ in range(GNN_REFINE_ITERS):
                    paths = extract_worst_paths(final_report,
                                                k=config.num_paths)
                    graphs = [build_path_graph(p, model.dataset.extractor)
                              for p in paths if len(p.stages()) >= 2]
                    probs = model.net_probabilities(graphs)
                    new = {name for name, p in probs.items()
                           if p >= DEFAULT_THRESHOLD} - requested
                    if not new:
                        break
                    requested |= new
                    router, routing = route_with_mls(
                        design, requested, previous=routing)
                    final_report = timing.update_routing()
                runtime_s += time.perf_counter() - start

        coverage = total = detected = None
        if config.dft_strategy is not None:
            from repro.dft.mls_dft import apply_mls_dft, die_test_fault_sim
            with _stage("flow.dft", stages,
                        strategy=config.dft_strategy):
                apply_mls_dft(design, router, routing, config.dft_strategy)
                # DFT edits the netlist structurally (muxes, observe
                # flops, net splits) — outside the incremental
                # contract, so rebuild.
                final_report = run_sta(design)
                sim = die_test_fault_sim(design, stream("die-test", seed),
                                         patterns=DFT_PATTERNS,
                                         with_dft=True,
                                         max_faults=DFT_MAX_FAULTS)
                coverage = sim.coverage_pct
                total = sim.total_faults
                detected = sim.detected_total

        with _stage("flow.power", stages):
            plan = default_power_plan(design)
            power = estimate_power(design, plan, activity=config.activity)
        pdn = None
        if config.pdn:
            with _stage("flow.pdn", stages):
                pdn = size_pdn(design, plan=plan)

    metrics.inc("flow.runs")
    return FlowReport(
        design=design,
        config=config,
        baseline_sta=base_report,
        final_sta=final_report,
        requested_mls=requested,
        applied_mls=routing.mls_applied_nets(),
        wirelength_m=routing.wirelength_um() * 1e-6,
        power=power,
        pdn=pdn,
        select_runtime_s=runtime_s,
        runtime_s=time.perf_counter() - t_flow,
        stage_runtime_s=stages,
        coverage_pct=coverage,
        total_faults=total,
        detected_faults=detected,
        model=model,
    )
