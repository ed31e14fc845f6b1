"""Incremental timing: per-net what-if deltas and exact delta STA.

Two engines live here:

* :func:`net_whatif_delta` — equation (1) of the paper: the slack
  delta of toggling MLS on one net, computed by probing both routings
  and differencing the driver cell delay (load change) and each
  sink's Elmore delay.  The oracle and the GNN's labels are built on
  this primitive.

* :class:`IncrementalSta` — an **exact** incremental STA over the
  levelized CSR timing graph, whose arrays it patches in place.
  ``update(changed_nets)`` patches only the arc delays the reroutes
  actually touched (net arcs + the driver cell's load-dependent arcs
  + load-dependent launch delays), seeds a frontier from those pins,
  and re-propagates forward/backward only while values change.  The
  resulting :class:`TimingReport` is equal — arrivals, requireds,
  endpoint slacks and ``worst_pred`` tie-breaks — to a from-scratch
  :func:`repro.timing.sta.run_sta`.

  The incremental contract covers *routing* changes only: the pin
  graph's structure is routing-invariant, so reroutes are pure delay
  patches.  **Structural netlist edits** (buffer insertion, scan
  stitching, DFT net splitting, level shifters) add or remove pins
  and arcs and require a fresh :class:`IncrementalSta`; ``update``
  detects unknown pins/arcs and raises :class:`TimingError` rather
  than returning a stale report.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.design import Design
from repro.errors import TimingError
from repro.netlist.net import Net
from repro.obs import metrics, trace
from repro.route.router import GlobalRouter, RoutingResult
from repro.timing.delay import (PORT_DRIVE_RES, cell_output_delay,
                                port_drive_delay)
from repro.timing.graph import (TimingGraph, _is_false_path_pin,
                                build_timing_graph)
from repro.timing.sta import TimingReport, _propagate_csr

_NEG_INF = -math.inf
_POS_INF = math.inf


@dataclass
class WhatIfDelta:
    """MLS-on minus MLS-off delays for one net (ps; negative = MLS
    helps)."""

    net_name: str
    applied: bool                       # a shared trunk edge materialized
    delta_driver_ps: float
    delta_sink_ps: dict[str, float] = field(default_factory=dict)

    def worst_delta_ps(self) -> float:
        """The largest (most harmful) per-sink delta."""
        if not self.delta_sink_ps:
            return self.delta_driver_ps
        return self.delta_driver_ps + max(self.delta_sink_ps.values())


def _driver_resistance(net: Net) -> float:
    driver = net.driver
    if driver is None:
        raise TimingError(f"net {net.name} has no driver for what-if")
    if driver.owner is not None:
        return driver.owner.cell.drive_res
    return PORT_DRIVE_RES


def net_whatif_delta(design: Design, router: GlobalRouter,
                     result: RoutingResult, net: Net) -> WhatIfDelta:
    """Compute the MLS-on vs MLS-off delta for *net*.

    Non-destructive: probes both configurations against the current
    congestion state without committing either, so neither the routing
    result nor the grid changes.
    """
    rc_off, rc_on, applied = router.probe_net(result, net)

    drive = _driver_resistance(net)
    delta_driver = drive * (rc_on.load_ff - rc_off.load_ff) / 1000.0
    delta_sinks = {
        name: rc_on.sink_delay_ps.get(name, 0.0) - off_delay
        for name, off_delay in rc_off.sink_delay_ps.items()
    }
    return WhatIfDelta(net_name=net.name, applied=applied,
                       delta_driver_ps=delta_driver,
                       delta_sink_ps=delta_sinks)


class IncrementalSta:
    """Exact incremental STA over a routing-invariant pin graph.

    Build once per (netlist structure, clock period); call
    :meth:`update` after targeted reroutes with the affected net
    names, or :meth:`update_routing` after a full re-route (it patches
    a differential route's changed nets, or diffs every net's
    parasitics and patches only real changes).  Both return a report
    equal to a from-scratch :func:`run_sta`.

    The engine patches the shared :class:`TimingGraph`'s
    ``edge_delay`` and ``src_launch`` arrays in place and walks its
    CSR fanin/fanout runs, so the graph can still be handed to
    :func:`run_sta` directly at any time.
    """

    def __init__(self, design: Design, graph: TimingGraph | None = None):
        self.design = design
        self.graph = graph if graph is not None else \
            build_timing_graph(design)
        self.period = design.clock_period_ps
        g = self.graph
        # Zero-copy scalar views of the CSR arrays for the frontier
        # loops: a memoryview read returns a plain int or float, and a
        # delay patch writes straight through into graph.edge_delay.
        self._delay = memoryview(g.edge_delay)
        self._edge_dst = memoryview(g.edge_dst)
        self._rank = memoryview(g.rank)
        self._out_ptr = memoryview(g.out_ptr)
        self._in_ptr = memoryview(g.in_ptr)
        self._in_edges = memoryview(g.in_edges)
        self._in_src = memoryview(g.edge_src[g.in_edges])

        # Launch constraints, replicating run_sta's init.
        self._launch: dict[int, float] = {}
        self._src_pos: dict[int, int] = {}
        for pos, (idx, launch) in enumerate(zip(g.src_idx.tolist(),
                                                g.src_launch.tolist())):
            if launch > self._launch.get(idx, _NEG_INF):
                self._launch[idx] = launch
            self._src_pos[idx] = pos
        self._req_init: dict[int, float] = {}
        self._ep_entry: dict[int, tuple[str, float]] = {}
        self._bind_endpoints()

        arrival, required, endpoint_slack, worst_pred = \
            _propagate_csr(g, self.period)
        self._arrival = arrival
        self._required = required
        self._worst_pred = worst_pred
        self._endpoint_slack = endpoint_slack
        #: (routing result, its eco_epoch) whose parasitics every arc
        #: delay reflects, or None when that is not known.
        self._synced: tuple[RoutingResult, int] | None = None
        if graph is None and design.routing is not None:
            self._synced = (design.routing, design.routing.eco_epoch)

    def _bind_endpoints(self) -> None:
        """Required-time seeds of every endpoint at the current period."""
        self._req_init.clear()
        self._ep_entry.clear()
        pins = self.graph.pins
        for idx, setup in zip(self.graph.ep_idx.tolist(),
                              self.graph.ep_setup.tolist()):
            req = self.period - setup
            self._req_init[idx] = min(self._req_init.get(idx, _POS_INF),
                                      req)
            self._ep_entry[idx] = (pins[idx].full_name, req)

    def _is_synced_to(self, routing: RoutingResult | None) -> bool:
        return (routing is not None and self._synced is not None
                and self._synced[0] is routing
                and self._synced[1] == routing.eco_epoch)

    # -- arc-delay patching --------------------------------------------------

    def _pin_idx(self, full_name: str) -> int:
        try:
            return self.graph.pin_index[full_name]
        except KeyError:
            raise TimingError(
                f"pin {full_name} not in timing graph — the netlist "
                f"changed structurally; rebuild the IncrementalSta"
            ) from None

    def _net_arc_updates(self, net: Net
                         ) -> tuple[list[tuple[int, list[int],
                                               list[float]]],
                                    tuple[int, float] | None]:
        """(arc updates, launch update) implied by *net*'s current RC.

        Mirrors ``build_timing_graph`` exactly: the net's wire arcs,
        the driver cell's load-dependent arcs (combinational) or
        launch delay (sequential / input port).  Arc updates come as
        ``(src, dsts, delays)`` per source pin, in the pin's fanout
        order.
        """
        routing = self.design.require_routing()
        rc = routing.rc.get(net.name)
        updates: list[tuple[int, list[int], list[float]]] = []
        launch: tuple[int, float] | None = None
        driver = net.driver
        if driver is None or net.is_clock:
            return updates, launch
        src = self._pin_idx(driver.full_name)
        dsts: list[int] = []
        wires: list[float] = []
        for sink in net.sinks:
            if _is_false_path_pin(sink):
                continue
            wire = 0.0
            if rc is not None:
                wire = rc.sink_delay_ps.get(sink.full_name, 0.0)
            dsts.append(self._pin_idx(sink.full_name))
            wires.append(wire)
        updates.append((src, dsts, wires))

        inst = driver.owner
        if inst is None:                     # input-port pad driver
            port = driver.port
            if port is not None and not port.false_path:
                load = rc.load_ff if rc is not None else 0.0
                launch = (src, port_drive_delay(load))
        else:
            load = rc.load_ff if rc is not None else net.sink_cap_ff()
            delay = cell_output_delay(inst.cell, load)
            if inst.is_sequential:
                launch = (src, delay)
            else:
                for pin in inst.input_pins():
                    if _is_false_path_pin(pin):
                        continue
                    updates.append((self._pin_idx(pin.full_name), [src],
                                    [delay]))
        return updates, launch

    def _arc_edges(self, src: int, dsts: list[int]) -> list[list[int]]:
        """Serial edge ids of every (src, dst) arc, per dst.

        A source pin's fanout run holds exactly its arcs, so on an
        unchanged structure the run lines up with *dsts* one to one.
        """
        lo, hi = self._fanout_run(src)
        run = self._edge_dst[lo:hi].tolist()
        if run == dsts:
            return [[lo + k] for k in range(len(dsts))]
        out = []
        for dst in dsts:
            eids = [lo + k for k, v in enumerate(run) if v == dst]
            if not eids:
                pins = self.graph.pins
                raise TimingError(
                    f"arc {pins[src].full_name} -> {pins[dst].full_name} "
                    f"not in timing graph — the netlist changed "
                    f"structurally; rebuild the IncrementalSta")
            out.append(eids)
        return out

    def _patch_edge(self, eid: int, delay: float) -> None:
        """Set one arc's delay in the shared graph."""
        metrics.inc("sta.inc.arcs_patched")
        self._delay[eid] = delay

    def _apply_net(self, net: Net, fwd: set[int], bwd: set[int]) -> None:
        updates, launch = self._net_arc_updates(net)
        for src, dsts, delays in updates:
            for dst, delay, eids in zip(dsts, delays,
                                        self._arc_edges(src, dsts)):
                for eid in eids:
                    if self._delay[eid] != delay:
                        self._patch_edge(eid, delay)
                        fwd.add(dst)
                        bwd.add(src)
        if launch is not None:
            idx, value = launch
            if self._launch.get(idx, _NEG_INF) != value:
                self._launch[idx] = value
                self.graph.src_launch[self._src_pos[idx]] = value
                fwd.add(idx)

    # -- frontier re-propagation ---------------------------------------------

    def _recompute_arrival(self, v: int) -> tuple[float, int]:
        """Arrival + worst predecessor of *v*, serial tie-break."""
        best = self._launch.get(v, _NEG_INF)
        pred = -1
        arrival = self._arrival
        delay = self._delay
        in_edges, in_src = self._in_edges, self._in_src
        for k in range(self._in_ptr[v], self._in_ptr[v + 1]):
            u = in_src[k]
            au = arrival[u]
            if au == _NEG_INF:
                continue
            cand = au + delay[in_edges[k]]
            if cand > best:
                best = cand
                pred = u
        return best, pred

    def _fanout_run(self, u: int) -> tuple[int, int]:
        r = self._rank[u]
        return self._out_ptr[r], self._out_ptr[r + 1]

    def _recompute_required(self, u: int) -> float:
        best = self._req_init.get(u, _POS_INF)
        required = self._required
        delay = self._delay
        edge_dst = self._edge_dst
        for eid in range(*self._fanout_run(u)):
            cand = required[edge_dst[eid]] - delay[eid]
            if cand < best:
                best = cand
        return best

    def _update_endpoint(self, idx: int) -> None:
        entry = self._ep_entry.get(idx)
        if entry is None:
            return
        name, req = entry
        at = self._arrival[idx]
        if at == _NEG_INF:
            self._endpoint_slack.pop(name, None)
        else:
            self._endpoint_slack[name] = req - at

    def _repropagate(self, fwd: set[int], bwd: set[int]) -> None:
        rank = self._rank
        heap = [(rank[v], v) for v in fwd]
        heapq.heapify(heap)
        queued = set(fwd)
        while heap:
            _, v = heapq.heappop(heap)
            queued.discard(v)
            new_a, new_p = self._recompute_arrival(v)
            self._worst_pred[v] = new_p
            if new_a != self._arrival[v]:
                self._arrival[v] = new_a
                self._update_endpoint(v)
                lo, hi = self._fanout_run(v)
                for d in self._edge_dst[lo:hi]:
                    if d not in queued:
                        queued.add(d)
                        heapq.heappush(heap, (rank[d], d))

        heap = [(-rank[u], u) for u in bwd]
        heapq.heapify(heap)
        queued = set(bwd)
        while heap:
            _, u = heapq.heappop(heap)
            queued.discard(u)
            new_r = self._recompute_required(u)
            if new_r != self._required[u]:
                self._required[u] = new_r
                for s in self._in_src[self._in_ptr[u]:self._in_ptr[u + 1]]:
                    if s not in queued:
                        queued.add(s)
                        heapq.heappush(heap, (-rank[s], s))

    # -- public API ----------------------------------------------------------

    def update(self, changed_nets: Iterable[str]) -> TimingReport:
        """Patch the delays of *changed_nets* and re-propagate.

        Pass the names of every net whose routing changed since the
        last update (the rerouted nets themselves — their driver-cell
        load arcs are patched automatically).  Returns a report equal
        to a from-scratch :func:`run_sta`.
        """
        # Given every changed net (the contract above), an update keeps
        # the engine synced to the result it tracks, at that result's
        # current edit count; against any other result, sync is lost.
        routing = self.design.routing
        self._synced = (routing, routing.eco_epoch) \
            if self._synced is not None and self._synced[0] is routing \
            else None
        if self.design.clock_period_ps != self.period:
            return self._rebind_period(changed_nets)
        netlist = self.design.netlist
        fwd: set[int] = set()
        bwd: set[int] = set()
        for name in changed_nets:
            self._apply_net(netlist.net(name), fwd, bwd)
        metrics.inc("sta.inc.updates")
        metrics.observe("sta.inc.frontier", len(fwd) + len(bwd))
        if fwd or bwd:
            self._repropagate(fwd, bwd)
        return self.report()

    def update_routing(self) -> TimingReport:
        """Re-sync against the design's current routing result.

        After a differential route (``route_all(previous=...)``) from
        exactly the result this engine last synced to — same object,
        no ECO edit since — only the route's ``changed_nets`` are
        patched: every other net kept its tree and parasitics.
        Otherwise every signal net's parasitics are diffed against the
        stored arc delays and only real changes are patched — the way
        to follow a from-scratch route, where most nets route
        identically and only the neighborhood of the toggled MLS nets
        moves.  Either way the report equals a from-scratch
        :func:`run_sta`.
        """
        routing = self.design.require_routing()
        with trace.span("sta.update_routing") as span:
            changed_only = routing.changed_nets is not None \
                and self._is_synced_to(routing.diffed_from())
            if changed_only:
                names = list(routing.changed_nets)
            else:
                names = [net.name
                         for net in self.design.netlist.signal_nets()]
            span.set(nets=len(names), changed_only=changed_only)
            report = self.update(names)
        self._synced = (routing, routing.eco_epoch)
        return report

    def _rebind_period(self, changed_nets: Iterable[str]) -> TimingReport:
        """Clock constraint changed: refresh constraints, full pass."""
        self.period = self.design.clock_period_ps
        self._bind_endpoints()
        netlist = self.design.netlist
        fwd: set[int] = set()
        bwd: set[int] = set()
        for name in changed_nets:
            self._apply_net(netlist.net(name), fwd, bwd)
        arrival, required, endpoint_slack, worst_pred = \
            _propagate_csr(self.graph, self.period)
        self._arrival = arrival
        self._required = required
        self._worst_pred = worst_pred
        self._endpoint_slack = endpoint_slack
        return self.report()

    def report(self) -> TimingReport:
        """A fresh :class:`TimingReport` of the current state."""
        return TimingReport(clock_period_ps=self.period, graph=self.graph,
                            arrival=list(self._arrival),
                            required=list(self._required),
                            endpoint_slack=dict(self._endpoint_slack),
                            worst_pred=list(self._worst_pred))
