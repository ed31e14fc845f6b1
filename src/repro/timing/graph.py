"""Pin-level timing graph, built straight into levelized CSR arrays.

Nodes are pins (instance pins + port pins).  Arcs:

* **net arcs** — driver pin -> each sink pin, delay = Elmore wire delay
  from extracted parasitics;
* **cell arcs** — each data input -> output pin of combinational
  cells, delay = NLDM-lite cell delay under the output net's load;
* **launch** — sequential outputs and input ports are sources (clk->q
  delay, pad-driver delay respectively);
* **capture** — sequential data pins, macro data pins and output
  ports are endpoints.

Clock pins / nets are ideal (zero skew) and never propagate.  Scan-
enable pins are false paths.

:func:`build_timing_graph` walks the netlist once, appending every arc
to three flat lists.  A stable argsort by source gives each pin's
fanout (its net arcs in signal-net and sink order, then its cell arcs
in instance and input-pin order), a FIFO Kahn pass over integer lists
gives the topological order and longest-path levels, and a stable
argsort by the source's topological rank gives the serial edge order
the STA kernels and their ``worst_pred`` tie-breaks are defined on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.design import Design
from repro.errors import TimingError
from repro.netlist.net import Pin
from repro.timing.delay import (cell_output_delay, port_drive_delay,
                                setup_time)


@dataclass
class TimingGraph:
    """Levelized CSR timing graph over pin indices.

    Edges are stored in **serial order** — topological rank of the
    source pin, then the arc's position in that pin's fanout — so the
    edge index doubles as the tie-break key for ``worst_pred``
    reconstruction.  The edges leaving pin ``topo[r]`` are therefore
    the contiguous run ``out_ptr[r]:out_ptr[r + 1]``; the edges
    entering pin ``v`` are ``in_edges[in_ptr[v]:in_ptr[v + 1]]``, in
    ascending edge order.

    ``fwd_perm``/``fwd_starts`` group edges by the *destination* pin's
    level for the forward (arrival) sweep; ``bwd_perm``/``bwd_starts``
    group them by the *source* pin's level, highest first, for the
    backward (required) sweep.  Because STA is a pure max/min semiring
    over float64 (no order-dependent sums), per-level
    ``np.maximum.at`` / ``np.minimum.at`` scatters reproduce a serial
    edge-by-edge loop bit for bit.

    ``edge_delay`` and ``src_launch`` are the only mutable arrays:
    :class:`repro.timing.incremental.IncrementalSta` patches them
    after reroutes.
    """

    pins: list[Pin]
    pin_index: dict[str, int]       # pin full_name -> idx
    topo: np.ndarray                # int32 [n], FIFO Kahn order
    rank: np.ndarray                # int32 [n], position in topo
    level: np.ndarray               # int32 [n], longest-path depth
    num_levels: int
    edge_src: np.ndarray            # int32 [E], serial edge order
    edge_dst: np.ndarray            # int32 [E]
    edge_delay: np.ndarray          # float64 [E], patched on reroute
    out_ptr: np.ndarray             # int64 [n + 1], by topo rank
    in_ptr: np.ndarray              # int64 [n + 1], by pin
    in_edges: np.ndarray            # int32 [E], grouped by edge_dst
    fwd_perm: np.ndarray            # int32 [E] grouped by level[dst]
    fwd_starts: np.ndarray          # int64 [num_levels + 1]
    bwd_perm: np.ndarray            # int32 [E] grouped by -level[src]
    bwd_starts: np.ndarray          # int64 [num_levels + 1]
    src_idx: np.ndarray             # int32 [S] launch pins
    src_launch: np.ndarray          # float64 [S], patched on reroute
    ep_idx: np.ndarray              # int32 [P] endpoint pins
    ep_setup: np.ndarray            # float64 [P]

    @property
    def n(self) -> int:
        return len(self.pins)

    @property
    def num_edges(self) -> int:
        return int(self.edge_src.shape[0])


def _is_false_path_pin(pin: Pin) -> bool:
    """Scan-enable pins are static in functional mode."""
    return pin.owner is not None and pin.name == "SE"


def build_timing_graph(design: Design) -> TimingGraph:
    """Build the graph from the design's netlist + routing parasitics."""
    netlist = design.netlist
    rc_of = design.require_routing().rc.get

    # Pins in instance order, then inst.pins order, then port order.
    pins: list[Pin] = []
    for inst in netlist.instances.values():
        pins.extend(inst.pins.values())
    pins.extend(port.pin for port in netlist.ports.values())
    names = [pin.full_name for pin in pins]
    pin_index = dict(zip(names, range(len(pins))))
    idx_of = {pin: idx for idx, pin in enumerate(pins)}

    arc_src: list[int] = []
    arc_dst: list[int] = []
    arc_delay: list[float] = []

    # Net arcs.
    for net in netlist.signal_nets():
        if net.driver is None:
            continue
        rc = rc_of(net.name)
        wires = rc.sink_delay_ps if rc is not None else None
        src = idx_of[net.driver]
        for sink in net.sinks:
            if _is_false_path_pin(sink):
                continue
            dst = idx_of[sink]
            arc_src.append(src)
            arc_dst.append(dst)
            arc_delay.append(0.0 if wires is None
                             else wires.get(names[dst], 0.0))

    # Cell arcs for combinational cells; launch and capture points.
    src_idx: list[int] = []
    src_launch: list[float] = []
    ep_idx: list[int] = []
    ep_setup: list[float] = []
    for inst in netlist.instances.values():
        out_pin = inst.output_pin
        out_net = out_pin.net
        load = 0.0
        if out_net is not None:
            rc = rc_of(out_net.name)
            load = rc.load_ff if rc is not None else out_net.sink_cap_ff()
        delay = cell_output_delay(inst.cell, load)
        out_idx = idx_of[out_pin]
        if inst.is_sequential:
            src_idx.append(out_idx)             # clk->q launch
            src_launch.append(delay)
            req = setup_time(inst.cell)
            for pin in inst.input_pins():
                if _is_false_path_pin(pin) or pin.name == "SI":
                    continue    # scan shift is checked at scan speed
                ep_idx.append(idx_of[pin])
                ep_setup.append(req)
        else:
            for pin in inst.input_pins():
                if _is_false_path_pin(pin):
                    continue
                arc_src.append(idx_of[pin])
                arc_dst.append(out_idx)
                arc_delay.append(delay)

    # Ports.
    for port in netlist.ports.values():
        if port.false_path:
            continue
        idx = idx_of[port.pin]
        net = port.pin.net
        if port.direction == "in":
            if net is not None and net.is_clock:
                continue    # ideal clock source: not a data source
            load = 0.0
            if net is not None:
                rc = rc_of(net.name)
                load = rc.load_ff if rc is not None else 0.0
            src_idx.append(idx)
            src_launch.append(port_drive_delay(load))
        else:
            ep_idx.append(idx)
            ep_setup.append(0.0)

    n = len(pins)
    a_src = np.asarray(arc_src, dtype=np.int32)
    a_dst = np.asarray(arc_dst, dtype=np.int32)
    topo, level = _levelize(n, a_src, a_dst)
    rank = np.empty(n, dtype=np.int32)
    rank[topo] = np.arange(n, dtype=np.int32)

    # Serial order: topo rank of the source, then fanout position
    # (arc order within one source, which the stable sort keeps).
    order = np.argsort(rank[a_src], kind="stable")
    edge_src = a_src[order]
    edge_dst = a_dst[order]
    edge_delay = np.asarray(arc_delay, dtype=np.float64)[order]
    out_ptr = _offsets(np.bincount(a_src, minlength=n)[topo])
    in_ptr = _offsets(np.bincount(edge_dst, minlength=n))
    in_edges = np.argsort(edge_dst, kind="stable").astype(np.int32)

    num_levels = int(level.max()) + 1 if n else 1
    lev_dst = level[edge_dst]
    fwd_perm = np.argsort(lev_dst, kind="stable").astype(np.int32)
    fwd_starts = _offsets(np.bincount(lev_dst, minlength=num_levels))
    lev_src = level[edge_src]
    bwd_perm = np.argsort(-lev_src, kind="stable").astype(np.int32)
    bwd_starts = _offsets(np.bincount((num_levels - 1) - lev_src,
                                      minlength=num_levels))
    return TimingGraph(
        pins=pins, pin_index=pin_index, topo=topo, rank=rank,
        level=level, num_levels=num_levels, edge_src=edge_src,
        edge_dst=edge_dst, edge_delay=edge_delay, out_ptr=out_ptr,
        in_ptr=in_ptr, in_edges=in_edges, fwd_perm=fwd_perm,
        fwd_starts=fwd_starts, bwd_perm=bwd_perm, bwd_starts=bwd_starts,
        src_idx=np.asarray(src_idx, dtype=np.int32),
        src_launch=np.asarray(src_launch, dtype=np.float64),
        ep_idx=np.asarray(ep_idx, dtype=np.int32),
        ep_setup=np.asarray(ep_setup, dtype=np.float64))


def _offsets(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _levelize(n: int, a_src: np.ndarray, a_dst: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """(topo, level): FIFO Kahn order over the arcs, each pin's fanout
    visited in arc order, and longest-path depth; raises on cycles."""
    by_src = np.argsort(a_src, kind="stable")
    ptr = _offsets(np.bincount(a_src, minlength=n)).tolist()
    fanout = a_dst[by_src].tolist()
    indeg = np.bincount(a_dst, minlength=n)
    order = np.flatnonzero(indeg == 0).tolist()
    indeg = indeg.tolist()
    level = [0] * n
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        lu = level[u] + 1
        for k in range(ptr[u], ptr[u + 1]):
            v = fanout[k]
            if level[v] < lu:
                level[v] = lu
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    if len(order) != n:
        raise TimingError(
            f"timing graph has a cycle: ordered {len(order)}/{n} pins")
    return (np.asarray(order, dtype=np.int32),
            np.asarray(level, dtype=np.int32))
