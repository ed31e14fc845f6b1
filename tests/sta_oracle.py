"""Reference timing graph and serial STA loop.

:func:`repro.timing.graph.build_timing_graph` writes the levelized CSR
arrays straight from the netlist, and :func:`repro.timing.run_sta`
propagates them with per-level numpy scatters.  This module keeps the
seed implementation both must reproduce bit for bit: a list-of-lists
graph (``fanout``/``fanin`` per pin), its flattening into serial edge
order, and the pure-Python propagation loop whose edge visiting order
*defines* ``worst_pred`` tie-breaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import TimingError
from repro.timing.delay import (cell_output_delay, port_drive_delay,
                                setup_time)
from repro.timing.graph import _is_false_path_pin

_NEG_INF = -math.inf
_POS_INF = math.inf


@dataclass
class ListGraph:
    """Arrays-of-lists timing graph over pin indices."""

    pins: list
    pin_index: dict[str, int]               # pin full_name -> idx
    fanout: list[list[tuple[int, float]]]   # idx -> [(to, delay)]
    fanin: list[list[tuple[int, float]]]    # idx -> [(from, delay)]
    sources: list[tuple[int, float]]        # (idx, launch delay)
    endpoints: list[tuple[int, float]]      # (idx, setup requirement)
    topo: list[int]                         # topological pin order


def build_list_graph(design) -> ListGraph:
    """The seed graph construction, verbatim in behavior."""
    netlist = design.netlist
    routing = design.require_routing()

    pins: list = []
    pin_index: dict[str, int] = {}

    def register(pin) -> int:
        idx = pin_index.get(pin.full_name)
        if idx is None:
            idx = len(pins)
            pins.append(pin)
            pin_index[pin.full_name] = idx
        return idx

    for inst in netlist.instances.values():
        for pin in inst.pins.values():
            register(pin)
    for port in netlist.ports.values():
        register(port.pin)

    fanout: list[list[tuple[int, float]]] = [[] for _ in pins]
    fanin: list[list[tuple[int, float]]] = [[] for _ in pins]

    def add_arc(src: int, dst: int, delay: float) -> None:
        fanout[src].append((dst, delay))
        fanin[dst].append((src, delay))

    for net in netlist.signal_nets():
        if net.driver is None:
            continue
        rc = routing.rc.get(net.name)
        src = pin_index[net.driver.full_name]
        for sink in net.sinks:
            if _is_false_path_pin(sink):
                continue
            wire = 0.0
            if rc is not None:
                wire = rc.sink_delay_ps.get(sink.full_name, 0.0)
            add_arc(src, pin_index[sink.full_name], wire)

    sources: list[tuple[int, float]] = []
    endpoints: list[tuple[int, float]] = []
    for inst in netlist.instances.values():
        out_pin = inst.output_pin
        out_net = out_pin.net
        load = 0.0
        if out_net is not None:
            rc = routing.rc.get(out_net.name)
            load = rc.load_ff if rc is not None else out_net.sink_cap_ff()
        delay = cell_output_delay(inst.cell, load)
        out_idx = pin_index[out_pin.full_name]
        if inst.is_sequential:
            sources.append((out_idx, delay))
            req = setup_time(inst.cell)
            for pin in inst.input_pins():
                if _is_false_path_pin(pin) or pin.name == "SI":
                    continue
                endpoints.append((pin_index[pin.full_name], req))
        else:
            for pin in inst.input_pins():
                if _is_false_path_pin(pin):
                    continue
                add_arc(pin_index[pin.full_name], out_idx, delay)

    for port in netlist.ports.values():
        idx = pin_index[port.pin.full_name]
        if port.false_path:
            continue
        if port.direction == "in":
            if port.pin.net is not None and port.pin.net.is_clock:
                continue
            net = port.pin.net
            load = 0.0
            if net is not None:
                rc = routing.rc.get(net.name)
                load = rc.load_ff if rc is not None else 0.0
            sources.append((idx, port_drive_delay(load)))
        else:
            endpoints.append((idx, 0.0))

    return ListGraph(pins=pins, pin_index=pin_index, fanout=fanout,
                     fanin=fanin, sources=sources, endpoints=endpoints,
                     topo=_topological_pins(fanin, fanout))


def _topological_pins(fanin, fanout) -> list[int]:
    """Kahn's algorithm over pin arcs; raises on cycles."""
    n = len(fanout)
    indeg = [len(fanin[i]) for i in range(n)]
    ready = [i for i in range(n) if indeg[i] == 0]
    head = 0
    while head < len(ready):
        u = ready[head]
        head += 1
        for v, _ in fanout[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    if len(ready) != n:
        raise TimingError(
            f"timing graph has a cycle: ordered {len(ready)}/{n} pins")
    return ready


def flatten(graph: ListGraph) -> dict[str, np.ndarray]:
    """The seed's list-walk flattening into serial edge order: edges
    by topological order of the source, then fanout position, plus
    longest-path levels and the per-level sweep groupings."""
    n = len(graph.pins)
    level = np.zeros(n, dtype=np.int32)
    for u in graph.topo:
        lu = level[u] + 1
        for v, _ in graph.fanout[u]:
            if level[v] < lu:
                level[v] = lu
    src, dst, delay = [], [], []
    for u in graph.topo:
        for v, d in graph.fanout[u]:
            src.append(u)
            dst.append(v)
            delay.append(d)
    edge_src = np.asarray(src, dtype=np.int32)
    edge_dst = np.asarray(dst, dtype=np.int32)
    num_levels = int(level.max()) + 1 if n else 1
    lev_dst = level[edge_dst]
    lev_src = level[edge_src]
    return {
        "edge_src": edge_src,
        "edge_dst": edge_dst,
        "edge_delay": np.asarray(delay, dtype=np.float64),
        "level": level,
        "num_levels": num_levels,
        "fwd_perm": np.argsort(lev_dst, kind="stable"),
        "fwd_starts": np.concatenate(
            ([0], np.cumsum(np.bincount(lev_dst, minlength=num_levels)))),
        "bwd_perm": np.argsort(-lev_src, kind="stable"),
        "bwd_starts": np.concatenate(
            ([0], np.cumsum(np.bincount((num_levels - 1) - lev_src,
                                        minlength=num_levels)))),
    }


def propagate_serial(graph: ListGraph, period: float
                     ) -> tuple[list[float], list[float],
                                dict[str, float], list[int]]:
    """Reference Python-loop propagation (the executable spec)."""
    n = len(graph.pins)
    arrival = [_NEG_INF] * n
    worst_pred = [-1] * n
    for idx, launch in graph.sources:
        if launch > arrival[idx]:
            arrival[idx] = launch

    for u in graph.topo:
        au = arrival[u]
        if au == _NEG_INF:
            continue
        for v, delay in graph.fanout[u]:
            cand = au + delay
            if cand > arrival[v]:
                arrival[v] = cand
                worst_pred[v] = u

    required = [_POS_INF] * n
    endpoint_slack: dict[str, float] = {}
    for idx, setup in graph.endpoints:
        req = period - setup
        required[idx] = min(required[idx], req)
        at = arrival[idx]
        if at == _NEG_INF:
            continue    # unreachable endpoint (e.g. tied-off logic)
        endpoint_slack[graph.pins[idx].full_name] = req - at

    for u in reversed(graph.topo):
        ru = required[u]
        for v, delay in graph.fanout[u]:
            cand = required[v] - delay
            if cand < ru:
                ru = cand
        required[u] = ru

    return arrival, required, endpoint_slack, worst_pred


def serial_sta(design, graph: ListGraph | None = None):
    """A :class:`~repro.timing.sta.TimingReport` from the serial loop
    over the reference graph (built from *design* when not given)."""
    from repro.timing.sta import TimingReport
    if graph is None:
        graph = build_list_graph(design)
    period = design.clock_period_ps
    arrival, required, endpoint_slack, worst_pred = \
        propagate_serial(graph, period)
    return TimingReport(clock_period_ps=period, graph=graph,
                        arrival=arrival, required=required,
                        endpoint_slack=endpoint_slack,
                        worst_pred=worst_pred)
