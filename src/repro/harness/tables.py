"""Table builders — one function per paper table.

Heavy flow runs are memoized per (benchmark, selector, options) within
the process, so Figure 8 (which replots Tables IV/V data) and repeated
bench invocations don't pay twice.  A table compares selectors on one
prepared (partitioned/placed/buffered) design, so
:func:`run_benchmark_flows` prepares it once per call and the
per-*selector* runs only pay routing + selection + signoff: the first
selector flows the design it built, every later one its own unpickled
copy, and the pickle dies with the call.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.flow import (FlowConfig, FlowReport, collector_paused,
                             prepare_design, run_flow)
from repro.harness.designs import (BenchmarkSpec, get_benchmark,
                                   DEFAULT_EXPERIMENT_SEED)
from repro.mls import route_with_mls
from repro.obs import trace
from repro.service.keys import flow_key
from repro.snapshot import dumps_snapshot, loads_snapshot
from repro.timing import (IncrementalSta, extract_worst_paths,
                          net_whatif_delta)

#: (flow content key[, factory]) -> FlowReport
_FLOW_CACHE: dict[tuple, FlowReport] = {}


@collector_paused()
def run_benchmark_flows(spec: BenchmarkSpec, selectors: Iterable[str],
                        with_scan: bool = False,
                        dft_strategy: str | None = None,
                        seed: int = DEFAULT_EXPERIMENT_SEED,
                        store=None) -> dict[str, FlowReport]:
    """Run (or fetch) one memoized flow per selector on one design,
    with the cyclic garbage collector paused throughout
    (:func:`collector_paused`).

    The memo key is the shared content key from
    :mod:`repro.service.keys` — the same derivation the persistent
    store uses.  Factories without a stable content fingerprint key by
    identity.

    The selectors share everything the prepared design depends on.  Of
    those that miss the memo, the first flows the design
    :func:`prepare_design` built; only if another miss follows is that
    design pickled, once, before its flow starts, and each later flow
    runs on its own unpickled copy, so no flow's routing, MLS or DFT
    edits reach another's design.  The pickle dies with the call, and
    a one-selector call (:func:`run_benchmark_flow`) pickles nothing.

    Pass *store* (an :class:`repro.service.ArtifactStore`) to read
    through / write back the persistent artifact cache instead — warm
    invocations then skip generate/partition/place/buffer or replay
    the whole stored report.
    """
    tech = spec.tech()
    configs = {sel: spec.flow_config(sel, with_scan=with_scan,
                                     dft_strategy=dft_strategy)
               for sel in selectors}
    keys = {}
    for sel, config in configs.items():
        content = flow_key(spec.factory, tech, seed, config)
        keys[sel] = (content.hexdigest,) if content.stable \
            else (content.hexdigest, spec.factory)
    misses = [sel for sel in configs if keys[sel] not in _FLOW_CACHE]
    blob = None

    def prepare_shared(factory, tech, seed, config):
        nonlocal blob
        design = prepare_design(factory, tech, seed, config)
        with trace.span("prepare.pickle") as span:
            blob = dumps_snapshot(design)
            span.set(bytes=len(blob))
        return design

    def copy_shared(factory, tech, seed, config):
        with trace.span("prepare.copy", bytes=len(blob)):
            return loads_snapshot(blob)

    for i, sel in enumerate(misses):
        if store is not None:
            from repro.service.stages import run_flow_stored
            report, _summary, _cached = run_flow_stored(
                spec.factory, tech, seed, configs[sel], store,
                need_report=True)
        else:
            if i == 0:
                prepare = prepare_shared if len(misses) > 1 \
                    else prepare_design
            else:
                prepare = copy_shared
            report = run_flow(spec.factory, tech, seed, configs[sel],
                              prepare=prepare)
        _FLOW_CACHE[keys[sel]] = report
    return {sel: _FLOW_CACHE[keys[sel]] for sel in configs}


def run_benchmark_flow(spec: BenchmarkSpec, selector: str,
                       with_scan: bool = False,
                       dft_strategy: str | None = None,
                       seed: int = DEFAULT_EXPERIMENT_SEED,
                       store=None) -> FlowReport:
    """Run (or fetch) one memoized flow: :func:`run_benchmark_flows`
    with one selector, so it prepares with plain
    :func:`prepare_design` and pickles nothing, as a one-shot
    ``repro flow`` needs."""
    return run_benchmark_flows(spec, (selector,), with_scan=with_scan,
                               dft_strategy=dft_strategy, seed=seed,
                               store=store)[selector]


def clear_flow_cache() -> None:
    _FLOW_CACHE.clear()


def flow_comparison_rows(benchmark_key: str,
                         selectors: tuple[str, ...] = ("none", "sota", "gnn"),
                         seed: int = DEFAULT_EXPERIMENT_SEED
                         ) -> dict[str, dict[str, float]]:
    """selector -> metric row for one benchmark."""
    reports = run_benchmark_flows(get_benchmark(benchmark_key), selectors,
                                  seed=seed)
    return {sel: report.row() for sel, report in reports.items()}


def format_table(title: str, columns: list[str],
                 rows: dict[str, dict[str, float]],
                 metrics: list[tuple[str, str, str]]) -> str:
    """Render rows as the paper prints them.

    ``metrics`` is a list of (metric key, display label, format spec).
    ``columns`` are the flow names in display order.
    """
    width = 14
    lines = [title, "=" * len(title)]
    header = f"{'metric':<22}" + "".join(f"{c:>{width}}" for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for key, label, fmt in metrics:
        cells = []
        for col in columns:
            value = rows.get(col, {}).get(key)
            cells.append("-" if value is None else format(value, fmt))
        lines.append(f"{label:<22}" + "".join(f"{c:>{width}}" for c in cells))
    return "\n".join(lines)


_PPA_METRICS = [
    ("target_freq_mhz", "Target Freq (MHz)", ".0f"),
    ("wirelength_m", "WL (m)", ".3f"),
    ("wns_ps", "WNS (ps)", ".1f"),
    ("tns_ns", "TNS (ns)", ".2f"),
    ("vio_paths", "#Vio. Paths", ".0f"),
    ("mls_nets", "#MLS Nets", ".0f"),
    ("runtime_min", "Run-Time (min)", ".2f"),
    ("power_mw", "Pwr (mW)", ".1f"),
    ("ir_drop_pct", "IR-drop (%)", ".2f"),
    ("pdn_width_um", "M-T W (um)", ".1f"),
    ("pdn_pitch_um", "M-T P (um)", ".1f"),
    ("pdn_util_pct", "M-T U (%)", ".1f"),
    ("ls_power_mw", "L.S Pwr (mW)", ".3f"),
    ("eff_freq_mhz", "Eff. Freq (MHz)", ".0f"),
]


def table4_heterogeneous(seed: int = DEFAULT_EXPERIMENT_SEED
                         ) -> dict[str, dict[str, dict[str, float]]]:
    """Table IV: hetero PPA for MAERI-128 and A7 x {No MLS, SOTA, Ours}."""
    return {
        "maeri128_hetero": flow_comparison_rows("maeri128_hetero", seed=seed),
        "a7_hetero": flow_comparison_rows("a7_hetero", seed=seed),
    }


def table5_homogeneous(seed: int = DEFAULT_EXPERIMENT_SEED
                       ) -> dict[str, dict[str, dict[str, float]]]:
    """Table V: homo PPA for MAERI-256 and A7 x {No MLS, SOTA, Ours}."""
    return {
        "maeri256_homo": flow_comparison_rows("maeri256_homo", seed=seed),
        "a7_homo": flow_comparison_rows("a7_homo", seed=seed),
    }


def table6_testable(seed: int = DEFAULT_EXPERIMENT_SEED
                    ) -> dict[str, dict[str, dict[str, float]]]:
    """Table VI: testable designs — No-MLS+DFT vs GNN-MLS+DFT (hetero).

    The No-MLS flow has no MLS opens, so only scan applies; the
    GNN-MLS flow additionally gets the wire-based MLS repairs.
    """
    out: dict[str, dict[str, dict[str, float]]] = {}
    for key in ("maeri128_hetero", "a7_hetero"):
        reports = run_benchmark_flows(
            get_benchmark(key), ("none", "gnn"), with_scan=True,
            dft_strategy="wire-based", seed=seed)
        out[key] = {sel: report.row() for sel, report in reports.items()}
    return out


def table3_dft_comparison(seed: int = DEFAULT_EXPERIMENT_SEED
                          ) -> dict[str, dict[str, float]]:
    """Table III: net-based vs wire-based DFT on the small fabric.

    Both strategies apply to the same GNN-selected MLS set on
    MAERI-16PE; rows report total/detected faults and WNS.  The two
    flows differ in their DFT strategy, so each is its own
    one-selector call with its own prepare.
    """
    spec = get_benchmark("maeri16_hetero")
    out: dict[str, dict[str, float]] = {}
    for strategy in ("net-based", "wire-based"):
        report = run_benchmark_flow(spec, "gnn", with_scan=True,
                                    dft_strategy=strategy, seed=seed)
        row = report.row()
        out[strategy] = {
            "total_faults": row["total_faults"],
            "detected_faults": row["detected_faults"],
            "coverage_pct": row["coverage_pct"],
            "wns_ps": row["wns_ps"],
            "mls_nets": row["mls_nets"],
        }
    return out


def table1_single_net(seed: int = DEFAULT_EXPERIMENT_SEED
                      ) -> list[dict[str, object]]:
    """Table I: single-net MLS impact — one net helped, one net hurt.

    On the no-MLS MAERI baseline, probe the 2-D nets on the worst
    paths; report, for the strongest improvement and the strongest
    degradation: slack before/after MLS and the metal layers used.
    """
    spec = get_benchmark("maeri128_hetero")
    config = FlowConfig(selector="none",
                        target_freq_mhz=spec.target_freq_mhz)
    design = prepare_design(spec.factory, spec.tech(), seed, config)
    router, routing = route_with_mls(design, set())
    timing = IncrementalSta(design)
    report = timing.report()
    paths = extract_worst_paths(report, k=200, only_violating=True)
    tiers = design.require_tiers()

    best = worst = None        # (delta, net, path)
    for path in paths:
        for _, net in path.stages():
            if tiers.is_cross_tier(net):
                continue
            delta = net_whatif_delta(design, router, routing, net)
            if not delta.applied:
                continue
            d = delta.worst_delta_ps()
            entry = (d, net, path)
            if best is None or d < best[0]:
                best = entry
            if worst is None or d > worst[0]:
                worst = entry
    rows: list[dict[str, object]] = []
    stacks = design.tech.stacks
    for tag, entry in (("improved", best), ("degraded", worst)):
        if entry is None:
            continue
        d, net, path = entry
        tree_before = routing.tree(net.name)
        rc_before = routing.rc.get(net.name)
        usage_before = tree_before.usage_string(
            {0: stacks[0], 1: stacks[1]}, tiers.of_pin(net.driver))
        router.reroute_net(routing, net, mls=True)
        usage_after = routing.tree(net.name).usage_string(
            {0: stacks[0], 1: stacks[1]}, tiers.of_pin(net.driver))
        # Exact signoff slack with the MLS route committed: patch just
        # this net in the incremental STA rather than re-running full
        # STA — then roll grid and timing back to the probed baseline.
        rep_on = timing.update([net.name])
        slack_after = rep_on.endpoint_slack[path.endpoint]
        router.restore_net(routing, net, tree_before, rc_before)
        timing.update([net.name])
        rows.append({
            "case": tag,
            "net": net.name,
            "slack_before_ps": path.slack_ps,
            "slack_after_ps": slack_after,
            "delta_ps": d,
            "metals_before": usage_before,
            "metals_after": usage_after,
        })
    return rows
