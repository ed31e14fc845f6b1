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
import threading
import time
import weakref
from collections import OrderedDict
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
from repro.route.router import GlobalRouter, RouteConfig
from repro.mls import oracle_select, route_with_mls, sota_select
from repro.mls.oracle import candidate_nets
from repro.timing import IncrementalSta, run_sta
from repro.timing.sta import TimingReport
from repro.rng import SeedBundle
from repro.snapshot import dumps_snapshot, loads_snapshot
from repro.core.decide import decide_mls_nets
from repro.core.pathset import build_dataset
from repro.core.trainer import TrainConfig, train_gnn_mls

#: Netlist factory signature: (libraries, seeds) -> Netlist.
NetlistFactory = Callable[[dict, SeedBundle], Netlist]

SELECTORS = ("none", "sota", "gnn", "oracle", "random")

DFT_STRATEGIES = ("net-based", "wire-based")


@dataclass(frozen=True)
class FlowConfig:
    """Flow knobs for one run."""

    selector: str = "gnn"
    target_freq_mhz: float = 1500.0
    num_paths: int = 1500
    num_labeled: int = 500
    with_scan: bool = False
    dft_strategy: Optional[str] = None      # "net-based"/"wire-based"
    dft_patterns: int = 256
    #: Cap on exactly-simulated faults (stride-sampled beyond).
    dft_max_faults: int = 30000
    train: TrainConfig = field(default_factory=TrainConfig)
    route: RouteConfig = field(default_factory=RouteConfig)
    #: Oracle selector criterion: False labels nets by their local
    #: worst-sink delay delta; True measures the exact design WNS/TNS
    #: movement per net via incremental STA.
    oracle_exact_slack: bool = False
    decision_threshold: float = 0.5
    #: After routing the first GNN selection, re-extract the now-worst
    #: paths and re-infer, growing the set — covers nets that only
    #: become critical once the original offenders are fixed.
    gnn_refine_iters: int = 2
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
    #: Whole-flow wall time: prepare (even when the design came from
    #: the prepare cache) through PDN.  Wall-clock, so not part of
    #: :meth:`row`.
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

    ``repro.harness.tables.run_benchmark_flow`` holds it, which covers
    ``repro flow`` (with or without ``--store``), the flow benchmark
    and every table and figure builder.  A running flow leaves no
    unreachable cycles: all it builds is still reachable from its
    report when it returns (``tests/test_flow_gc.py``), so the
    collections it used to run freed nothing, yet on MAERI-128 they
    walked ~280 K live objects about 500 times per flow.  The design
    itself is cyclic (a pin points to its net and its owner, which
    point back), so once its report is dropped the design is garbage
    that only the collector frees.  The deferred cost is the first
    automatic collection after the pause, which walks the flow's
    surviving objects once.

    The collector is process state, so the pause is too: the outermost
    entry, in any thread, records ``gc.isenabled()`` and disables the
    collector, and the outermost exit restores that state, also when
    the body raises.  Nothing calls ``gc.collect()`` or
    ``gc.freeze()``.  The daemon calls ``run_flow_stored`` directly and
    does not pause: it drops a design per cold job, and with a backlog
    a pause there kept those designs alive (about 51 MB per cold
    MAERI-128 job).
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


#: Side-channel for each prepared design's wall time: run_flow folds
#: it into FlowReport.runtime_s even when the design was prepared
#: out-of-band (the cache, the table harness).  Deliberately NOT
#: stored on the design — prepared designs must stay byte-identical
#: under pickling regardless of how long preparation took.
_PREPARE_RUNTIME: "weakref.WeakKeyDictionary[Design, float]" = \
    weakref.WeakKeyDictionary()


def prepare_runtime_s(design: Design) -> float:
    """Wall seconds spent preparing *design* (0.0 if unknown)."""
    try:
        return _PREPARE_RUNTIME.get(design, 0.0)
    except TypeError:               # non-weakref-able test stand-ins
        return 0.0


def _note_prepare_runtime(design: Design, seconds: float) -> None:
    try:
        _PREPARE_RUNTIME[design] = seconds
    except TypeError:               # non-weakref-able test stand-ins
        pass


def stage_generate(factory: NetlistFactory, tech: TechSetup,
                   seeds: SeedBundle) -> Netlist:
    """Prepare stage 1: build (or import) the netlist.

    Pure in (factory, tech libraries, seed): the generators draw only
    from their own named seed streams, so skipping this stage — e.g.
    restoring its artifact from the service store — leaves every later
    stage's randomness untouched.
    """
    with trace.span("prepare.generate"):
        return factory(tech.libraries, seeds)


def stage_partition(netlist: Netlist):
    """Prepare stage 2: memory-on-logic tier assignment (pure)."""
    with trace.span("prepare.partition"):
        return partition_memory_on_logic(netlist)


def stage_place(netlist: Netlist, tiers, seeds: SeedBundle):
    """Prepare stage 3: placement; returns (placement, floorplan).

    Deterministic in (netlist, tiers) and independent of every
    ``FlowConfig`` field — nothing here reads the clock target, so
    frequency and scan sweeps share one placement artifact.
    """
    with trace.span("prepare.place"):
        return place_design(netlist, tiers, seeds)


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
                   seeds: SeedBundle, config: FlowConfig) -> Design:
    """Stages shared by every selector: generate through buffering."""
    t0 = time.perf_counter()
    with trace.span("flow.prepare"):
        netlist = stage_generate(factory, tech, seeds)
        design = Design(netlist, tech, config.target_freq_mhz)
        design.tiers = stage_partition(netlist)
        design.placement, design.floorplan = stage_place(
            netlist, design.tiers, seeds)
        stage_finish(design, config)
    _note_prepare_runtime(design, time.perf_counter() - t0)
    return design


#: prepare key -> pickled prepared design (see prepare_design_cached).
#: Bounded LRU: long benchmark sweeps touch many (design, tech, seed)
#: combinations (a prepared MAERI-128 pickles to about 1 MB) — keep
#: only the most recently used few instead of every design ever seen.
_PREPARE_CACHE: OrderedDict[tuple, bytes] = OrderedDict()

#: Maximum pickled designs retained in the prepare cache.
PREPARE_CACHE_MAX_ENTRIES = 8


def _prepare_cache_key(factory: NetlistFactory, tech: TechSetup,
                       seeds: SeedBundle, config: FlowConfig) -> tuple:
    """Everything prepare_design's output depends on.

    Derivation is shared with the persistent artifact store
    (:mod:`repro.service.keys`) so the in-memory LRU and the on-disk
    cache can never disagree about which config fields matter.  ``tech``
    is keyed by value (content digest) so fresh-but-equal TechSetup
    instances share one entry.  Factories the canonicalizer cannot
    content-fingerprint (ad-hoc test closures over live objects) fall
    back to identity: the factory object itself joins the key, which
    also pins its ``id`` against reuse for the entry's lifetime.
    """
    from repro.service.keys import prepare_key
    key = prepare_key(factory, tech, seeds, config)
    if key.stable:
        return (key.kind, key.hexdigest)
    return (key.kind, key.hexdigest, factory)


def prepare_design_cached(factory: NetlistFactory, tech: TechSetup,
                          seeds: SeedBundle, config: FlowConfig) -> Design:
    """Memoized :func:`prepare_design`, for callers that run several
    flows of one design; no two calls share a design.

    The cache stores the prepared design *pickled*.  A miss builds the
    design, pickles it into the cache for later hits and returns the
    design it built, which no one else holds; every hit gets its own
    unpickled copy.  So downstream stages (routing, MLS toggles, DFT
    inserts) on one call's design never leak into another selector's
    run.  Only a later hit repays a miss's pickle, so a one-shot flow
    calls :func:`prepare_design` instead.  Preparation is deterministic
    in (factory, tech, seed, target freq, scan), which is exactly the
    cache key.
    """
    key = _prepare_cache_key(factory, tech, seeds, config)
    t0 = time.perf_counter()
    blob = _PREPARE_CACHE.get(key)
    if blob is not None:
        metrics.inc("prepare.cache_hits")
        _PREPARE_CACHE.move_to_end(key)
        with trace.span("prepare.cache_copy", bytes=len(blob)):
            design = loads_snapshot(blob)
    else:
        metrics.inc("prepare.cache_misses")
        design = prepare_design(factory, tech, seeds, config)
        with trace.span("prepare.cache_store") as span:
            blob = _PREPARE_CACHE[key] = dumps_snapshot(design)
            span.set(bytes=len(blob))
        while len(_PREPARE_CACHE) > PREPARE_CACHE_MAX_ENTRIES:
            _PREPARE_CACHE.popitem(last=False)
    # What *this* call paid — an unpickle on a hit, build + pickle on
    # a miss.
    _note_prepare_runtime(design, time.perf_counter() - t0)
    return design


def clear_prepare_cache() -> None:
    _PREPARE_CACHE.clear()


def select_nets(design: Design, router: GlobalRouter, baseline,
                report: TimingReport, seeds: SeedBundle,
                config: FlowConfig,
                sta: IncrementalSta | None = None
                ) -> tuple[set[str], float, object]:
    """Run the configured selector; returns (nets, runtime_s, model)."""
    start = time.perf_counter()
    model = None
    if config.selector == "none":
        nets: set[str] = set()
    elif config.selector == "sota":
        nets = sota_select(design, baseline)
    elif config.selector == "oracle":
        nets = oracle_select(design, router, baseline,
                             exact_slack=config.oracle_exact_slack,
                             sta=sta)
    elif config.selector == "random":
        rng = seeds.fresh("random-selector")
        pool = [n.name for n in candidate_nets(design)]
        take = max(1, len(pool) // 5)
        nets = set(rng.choice(pool, size=min(take, len(pool)),
                              replace=False).tolist())
    else:  # gnn
        dataset = build_dataset(design, router, baseline, report,
                                num_paths=config.num_paths,
                                num_labeled=config.num_labeled)
        model = train_gnn_mls(dataset, seeds, config.train)
        nets = decide_mls_nets(model, threshold=config.decision_threshold)
    return nets, time.perf_counter() - start, model


def run_flow(factory: NetlistFactory, tech: TechSetup,
             seeds: SeedBundle, config: FlowConfig,
             design: Design | None = None) -> FlowReport:
    """Run the complete flow for one (design, selector) combination.

    Pass a pre-built *design* (e.g. from :func:`prepare_design_cached`)
    to skip the partition/place/buffer stages; it must have been
    prepared with the same factory/tech/seeds/config.
    """
    stages: dict[str, float] = {}
    # A design prepared out-of-band (prepare_design_cached, the table
    # harness) carries its own wall time; fold it into the whole-flow
    # runtime so FlowReport.runtime_s never undercounts preparation.
    prepare_ext_s = 0.0
    if design is not None:
        prepare_ext_s = prepare_runtime_s(design)
        stages["flow.prepare"] = prepare_ext_s
    t_flow = time.perf_counter()
    with trace.span("flow", selector=config.selector,
                    scan=config.with_scan):
        if design is None:
            design = prepare_design(factory, tech, seeds, config)
            stages["flow.prepare"] = prepare_runtime_s(design)

        with _stage("flow.route_baseline", stages):
            router, baseline = route_with_mls(design, set(), config.route)
        # The pin graph's structure is routing-invariant: build it once,
        # then patch arc delays incrementally after every reroute instead
        # of re-running full STA (the refine loop's former hot spot).
        with _stage("flow.sta_baseline", stages):
            timing = IncrementalSta(design)
            base_report = timing.report()

        with _stage("flow.select", stages, selector=config.selector):
            requested, runtime_s, model = select_nets(
                design, router, baseline, base_report, seeds, config,
                sta=timing)

        # Every later route replays the one before it (differential
        # route), and the STA then patches only the nets that moved.
        with _stage("flow.route_mls", stages, nets=len(requested)):
            router, routing = route_with_mls(design, requested,
                                             config.route,
                                             previous=baseline)
            final_report = timing.update_routing()

        if config.selector == "gnn" and model is not None:
            from repro.core.hypergraph import build_path_graph
            from repro.timing.paths import extract_worst_paths
            with _stage("flow.refine", stages):
                start = time.perf_counter()
                for _ in range(config.gnn_refine_iters):
                    paths = extract_worst_paths(final_report,
                                                k=config.num_paths)
                    graphs = [build_path_graph(p, model.dataset.extractor)
                              for p in paths if len(p.stages()) >= 2]
                    probs = model.net_probabilities(graphs)
                    new = {name for name, p in probs.items()
                           if p >= config.decision_threshold} - requested
                    if not new:
                        break
                    requested |= new
                    router, routing = route_with_mls(
                        design, requested, config.route,
                        previous=routing)
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
                sim = die_test_fault_sim(design, seeds.fresh("die-test"),
                                         patterns=config.dft_patterns,
                                         with_dft=True,
                                         max_faults=config.dft_max_faults)
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
        runtime_s=prepare_ext_s + time.perf_counter() - t_flow,
        stage_runtime_s=stages,
        coverage_pct=coverage,
        total_faults=total,
        detected_faults=detected,
        model=model,
    )
