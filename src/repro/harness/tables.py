"""Table builders — one function per paper table.

Heavy flow runs are memoized per (benchmark, selector, options) within
the process, so Figure 8 (which replots Tables IV/V data) and repeated
bench invocations don't pay twice.  One level below, the table
builders run every flow with ``share_prepare=True``, so the prepared
(partitioned/placed/buffered) design is memoized per benchmark by
:func:`repro.core.flow.prepare_design_cached` and the per-*selector*
runs of one table only pay routing + selection + signoff: the first
selector flows the design it built, every later one its own unpickled
copy.
"""

from __future__ import annotations

from repro.core.flow import (FlowConfig, FlowReport, collector_paused,
                             prepare_design, prepare_design_cached,
                             run_flow)
from repro.harness.designs import (BenchmarkSpec, get_benchmark,
                                   DEFAULT_EXPERIMENT_SEED)
from repro.mls import route_with_mls
from repro.service.keys import flow_key
from repro.timing import (IncrementalSta, extract_worst_paths,
                          net_whatif_delta)

#: (flow content key[, factory]) -> FlowReport
_FLOW_CACHE: dict[tuple, FlowReport] = {}


@collector_paused()
def run_benchmark_flow(spec: BenchmarkSpec, selector: str,
                       with_scan: bool = False,
                       dft_strategy: str | None = None,
                       seed: int = DEFAULT_EXPERIMENT_SEED,
                       store=None, *,
                       share_prepare: bool = False) -> FlowReport:
    """Run (or fetch) one cached flow, with the cyclic garbage
    collector paused throughout (:func:`collector_paused`).

    The memo key is the shared content key from
    :mod:`repro.service.keys` — the same derivation the persistent
    store uses.  Factories without a stable content fingerprint key by
    identity, exactly like the prepare LRU.

    A caller that will run more flows of the same design passes
    ``share_prepare=True``: the design then comes from
    :func:`repro.core.flow.prepare_design_cached`, whose miss pickles
    it so that later flows copy it instead of preparing again.  The
    default prepares with plain ``prepare_design``, as a one-shot
    ``repro flow`` needs, and pickles nothing.

    Pass *store* (an :class:`repro.service.ArtifactStore`) to read
    through / write back the persistent artifact cache — warm
    invocations then skip generate/partition/place/buffer or replay
    the whole stored report.
    """
    config = spec.flow_config(selector, with_scan=with_scan,
                              dft_strategy=dft_strategy)
    content = flow_key(spec.factory, spec.tech(), spec.seeds(seed),
                       config)
    key: tuple = (content.hexdigest,)
    if not content.stable:
        key += (spec.factory,)
    if key not in _FLOW_CACHE:
        if store is not None:
            from repro.service.stages import run_flow_stored
            report, _summary, _cached = run_flow_stored(
                spec.factory, spec.tech(), spec.seeds(seed), config,
                store, need_report=True)
        else:
            prepare = prepare_design_cached if share_prepare \
                else prepare_design
            report = run_flow(spec.factory, spec.tech(), spec.seeds(seed),
                              config, prepare=prepare)
        _FLOW_CACHE[key] = report
    return _FLOW_CACHE[key]


def clear_flow_cache() -> None:
    _FLOW_CACHE.clear()


def flow_comparison_rows(benchmark_key: str,
                         selectors: tuple[str, ...] = ("none", "sota", "gnn"),
                         seed: int = DEFAULT_EXPERIMENT_SEED
                         ) -> dict[str, dict[str, float]]:
    """selector -> metric row for one benchmark."""
    spec = get_benchmark(benchmark_key)
    return {sel: run_benchmark_flow(spec, sel, seed=seed,
                                    share_prepare=True).row()
            for sel in selectors}


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
        spec = get_benchmark(key)
        rows = {}
        rows["none"] = run_benchmark_flow(
            spec, "none", with_scan=True, dft_strategy="wire-based",
            seed=seed, share_prepare=True).row()
        rows["gnn"] = run_benchmark_flow(
            spec, "gnn", with_scan=True, dft_strategy="wire-based",
            seed=seed, share_prepare=True).row()
        out[key] = rows
    return out


def table3_dft_comparison(seed: int = DEFAULT_EXPERIMENT_SEED
                          ) -> dict[str, dict[str, float]]:
    """Table III: net-based vs wire-based DFT on the small fabric.

    Both strategies apply to the same GNN-selected MLS set on
    MAERI-16PE; rows report total/detected faults and WNS.
    """
    spec = get_benchmark("maeri16_hetero")
    out: dict[str, dict[str, float]] = {}
    for strategy in ("net-based", "wire-based"):
        report = run_benchmark_flow(spec, "gnn", with_scan=True,
                                    dft_strategy=strategy, seed=seed,
                                    share_prepare=True)
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
    design = prepare_design_cached(spec.factory, spec.tech(),
                                   spec.seeds(seed), config)
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
