"""Elmore RC extraction on route trees.

Per net, computes the driver-visible load, total wire R/C (Table II
features), and per-sink Elmore delays.  Edge electricals come from the
assigned layer pair (mean of the two layers), intra-tier via stacks,
and F2F hybrid-bond vias — so the timing cost/benefit of MLS falls out
of the same model as ordinary routing.

Every per-layer number an edge needs is looked up by index in
:class:`RcTables`, built once per technology (each
:class:`~repro.route.router.GlobalRouter` holds one), and
:meth:`RcTables.extract` walks a tree with flat index lists.  The seed's
per-edge extractor is kept in ``tests/route_oracle.py``, and the walker
must reproduce it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RoutingError
from repro.route.tree import RouteTree
from repro.tech.layers import F2FVia, MetalStack
from repro.units import rc_to_ps


@dataclass
class NetRC:
    """Extracted parasitics of one routed net.

    ``sink_delay_ps`` maps sink pin full-name -> Elmore wire delay from
    the driver.  ``load_ff`` is what the driving cell sees: all wire,
    via and F2F capacitance plus sink pin caps.
    """

    net_name: str
    wire_cap_ff: float
    wire_res_ohm: float
    load_ff: float
    wirelength_um: float
    sink_delay_ps: dict[str, float] = field(default_factory=dict)


class RcTables:
    """One technology's edge electricals, indexed by tier and pair.

    ``wire[tier][pair]`` is the pair's mean (R, C) per um, ``via[tier]``
    the tier's per-hop via (R, C), ``escape[tier]`` the per-um (R, C) of
    an MLS escape stub on an edge routed on *tier* (the other, home
    tier's pair 0), and ``f2f`` the bond via's (R, C).
    """

    def __init__(self, stacks: tuple[MetalStack, MetalStack],
                 f2f: F2FVia):
        self.wire = tuple(
            tuple(((la.r_per_um + lb.r_per_um) / 2.0,
                   (la.c_per_um + lb.c_per_um) / 2.0)
                  for la, lb in stack.pairs())
            for stack in stacks)
        self.via = tuple((stack.via_r, stack.via_c) for stack in stacks)
        self.escape = tuple(self.wire[1 - tier][0]
                            for tier in range(len(stacks)))
        self.f2f = (f2f.resistance, f2f.capacitance)

    def extract(self, tree: RouteTree) -> NetRC:
        """Parasitics and per-sink Elmore delays of *tree*.

        Sink pin capacitances are read from the tree's pin-bearing
        nodes.  Every sum runs over the same values in the same order
        as the per-edge reference, so the result is bit-identical.
        """
        nodes, edges = tree.nodes, tree.edges
        wire, via, escape = self.wire, self.via, self.escape
        f2f_r, f2f_c = self.f2f
        n = len(nodes)
        kids: list[list[int]] = [[] for _ in nodes]   # edge indices
        child: list[int] = []
        rs: list[float] = []
        cs: list[float] = []
        for i, edge in enumerate(edges):
            tier, pair = edge.tier, edge.pair
            pairs = wire[tier]
            if not 0 <= pair < len(pairs):
                raise RoutingError(
                    f"net {tree.net_name}: edge {edge.parent}->{edge.child}"
                    f" uses pair {pair}, out of range for tier {tier} "
                    f"({len(pairs)} pairs)")
            r_um, c_um = pairs[pair]
            via_r, via_c = via[tier]
            length, hops, n_f2f = edge.length, edge.via_hops, edge.n_f2f
            r = r_um * length + hops * via_r + n_f2f * f2f_r
            c = c_um * length + hops * via_c + n_f2f * f2f_c
            if edge.escape_um > 0.0:
                # MLS escape stubs run on the *home* tier's lowest pair.
                esc_r, esc_c = escape[tier]
                r += esc_r * edge.escape_um
                c += esc_c * edge.escape_um
            rs.append(r)
            cs.append(c)
            child.append(edge.child)
            kids[edge.parent].append(i)

        # Parents before children (breadth-first from the driver); a
        # parent may carry a higher node index than its children.
        order = [0]
        for u in order:
            for i in kids[u]:
                order.append(child[i])

        subtree_cap = [0.0] * n
        for u in reversed(order):
            cap = 0.0
            if u != 0:
                pin = nodes[u].pin
                if pin is not None:
                    cap += pin.cap_ff
            for i in kids[u]:
                cap += cs[i] + subtree_cap[child[i]]
            subtree_cap[u] = cap

        delay = [0.0] * n
        for u in order:
            base = delay[u]
            for i in kids[u]:
                v = child[i]
                delay[v] = base + rc_to_ps(rs[i],
                                           cs[i] / 2.0 + subtree_cap[v])

        # Builtin sum(), never a += loop: from Python 3.12 sum()
        # compensates float rounding, so a loop would match only 3.11.
        total_c = sum(cs)
        sinks = tree.sink_nodes()
        sink_caps = sum(node.pin.cap_ff for node in sinks)
        return NetRC(
            net_name=tree.net_name,
            wire_cap_ff=total_c,
            wire_res_ohm=sum(rs),
            load_ff=total_c + sink_caps,
            wirelength_um=tree.wirelength(),
            sink_delay_ps={node.pin.full_name: delay[node.idx]
                           for node in sinks},
        )
