"""Store-backed flow execution: pure stages + content-addressed reuse.

The cold path is exactly :func:`repro.core.flow.prepare_design` /
:func:`repro.core.flow.run_flow` — same stage functions, same spans.
This module adds artifact lookups between stages:

* ``prepare.generate``  — the netlist;
* ``prepare.partition`` — the tier assignment (whose flat pickle
  carries the netlist, so one payload keeps identity consistent);
* ``prepare.place``     — (placement, floorplan), likewise carrying
  netlist + tiers;
* ``prepare.design``    — the fully buffered design;
* ``flow.report``       — the complete pickled :class:`FlowReport`;
* ``flow.summary``      — a small JSON-able row + digest dict, what
  the daemon answers warm requests from without unpickling megabytes.

Because stage keys are prefix-shaped (:mod:`repro.service.keys`), a
request that differs only in frequency or scan config still reuses the
placement artifact; a request that differs in nothing replays the
stored report, provably bit-identical to the cold run (pickle
round-trips are pinned by the golden-equivalence suite, and
:func:`report_digest` rides along in the summary for end-to-end
verification).
"""

from __future__ import annotations

import functools
import hashlib
import json

from repro.core.flow import (FlowConfig, FlowReport, NetlistFactory,
                             run_flow, stage_finish, stage_generate,
                             stage_partition, stage_place)
from repro.design import Design, TechSetup
from repro.obs import metrics, trace
from repro.service.keys import (PrepareKeys, canonical, flow_key,
                                flow_summary_key, prepare_stage_keys)
from repro.service.store import ArtifactStore


def report_digest(report: FlowReport) -> str:
    """Stable digest of the observable flow outcome.

    Covers the table row, both STA summaries, the exact endpoint
    slacks and the requested/applied MLS sets — everything a client
    could act on.  Cold and warm runs of one key must agree on this
    (the daemon returns it with every flow response), so wall-clock
    columns (``runtime_min``) are excluded: two cold runs of one key
    are bit-identical in results, never in elapsed time.
    """
    h = hashlib.sha256()
    h.update(json.dumps(canonical(report.result_row()), sort_keys=True,
                        default=str).encode())
    for sta in (report.baseline_sta, report.final_sta):
        h.update(f"|{sta.wns_ps!r}|{sta.tns_ns!r}|"
                 f"{sta.num_violating}".encode())
        for name, slack in sta.endpoint_slack.items():
            h.update(f"{name}={float(slack)!r};".encode())
    h.update(("|req:" + ",".join(sorted(report.requested_mls))).encode())
    h.update(("|app:" + ",".join(sorted(report.applied_mls))).encode())
    return h.hexdigest()


def report_summary(report: FlowReport, digest: str | None = None) -> dict:
    """The ``flow.summary`` artifact payload (JSON-able, tiny)."""
    return {
        "row": report.row(),
        "report_digest": digest or report_digest(report),
        "select_runtime_s": report.select_runtime_s,
        "runtime_s": report.runtime_s,
        "stage_runtime_s": dict(report.stage_runtime_s),
        "requested_mls": sorted(report.requested_mls),
        "applied_mls": sorted(report.applied_mls),
    }


def prepare_design_stored(factory: NetlistFactory, tech: TechSetup,
                          seed: int, config: FlowConfig,
                          store: ArtifactStore) -> Design:
    """Store-backed :func:`prepare_design`: resume from the deepest
    artifact hit, persist every stage boundary crossed."""
    keys = prepare_stage_keys(factory, tech, seed, config)
    design = store.get(keys.prepared)
    if design is None:
        design = _build_prepared(factory, tech, seed, config, keys, store)
        store.put(keys.prepared, design)
    else:
        metrics.inc("service.prepare_design_hits")
    return design


def _build_prepared(factory: NetlistFactory, tech: TechSetup,
                    seed: int, config: FlowConfig,
                    keys: PrepareKeys, store: ArtifactStore) -> Design:
    placed = store.get(keys.place)
    if placed is not None:
        placement, floorplan = placed
        netlist, tiers = placement.netlist, placement.tiers
    else:
        tiers = store.get(keys.partition)
        if tiers is not None:
            netlist = tiers.netlist
        else:
            netlist = store.get(keys.generate)
            if netlist is None:
                netlist = stage_generate(factory, tech, seed)
                store.put(keys.generate, netlist)
            tiers = stage_partition(netlist)
            store.put(keys.partition, tiers)
        placement, floorplan = stage_place(netlist, tiers)
        store.put(keys.place, (placement, floorplan))
    design = Design(netlist, tech, config.target_freq_mhz)
    design.tiers = tiers
    design.placement = placement
    design.floorplan = floorplan
    return stage_finish(design, config)


def run_flow_stored(factory: NetlistFactory, tech: TechSetup,
                    seed: int, config: FlowConfig,
                    store: ArtifactStore,
                    need_report: bool = True
                    ) -> tuple[FlowReport | None, dict, bool]:
    """Run (or replay) one flow through the store.

    Returns ``(report, summary, cached)``.  With ``need_report=False``
    a warm hit answers from the summary artifact alone — *report* is
    ``None`` and nothing megabyte-sized is unpickled; that is the
    daemon's fast path.  A cold run executes the full flow (with
    store-backed prepare, so even a cold *flow* may be a warm
    *prepare*) and persists both artifacts.
    """
    fkey = flow_key(factory, tech, seed, config)
    skey = flow_summary_key(factory, tech, seed, config)
    if not need_report:
        summary = store.get(skey)
        if summary is not None:
            metrics.inc("service.flow_summary_hits")
            return None, summary, True
    report = store.get(fkey)
    if report is not None:
        metrics.inc("service.flow_report_hits")
        summary = store.get(skey)
        if summary is None:     # e.g. the small artifact was evicted
            summary = report_summary(report)
            store.put(skey, summary)
        return report, summary, True
    metrics.inc("service.flow_computes")
    with trace.span("service.flow_compute", key=fkey.short):
        report = run_flow(factory, tech, seed, config,
                          prepare=functools.partial(prepare_design_stored,
                                                    store=store))
    summary = report_summary(report)
    store.put(fkey, report)
    store.put(skey, summary)
    return report, summary, False


def flow_artifact_paths(factory: NetlistFactory, tech: TechSetup,
                        seed: int, config: FlowConfig,
                        store: ArtifactStore) -> dict[str, str]:
    """Filesystem locations of this flow's report + summary blobs
    (readable with :func:`repro.service.store.read_artifact`)."""
    return {
        "report": str(store.object_path(
            flow_key(factory, tech, seed, config))),
        "summary": str(store.object_path(
            flow_summary_key(factory, tech, seed, config))),
    }
