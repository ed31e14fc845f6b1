"""Congestion-aware global router with Metal Layer Sharing.

Routing policy per net (long nets first, as commercial routers prioritize):

1. Take the net's rectilinear MST over pin locations, rooted at the
   driver, from the placement's route topology
   (:mod:`repro.route.steiner`), which every route of the placement
   shares.
2. For each tree edge, pick a layer pair by length, falling back to a
   less-congested pair (or taking a detour penalty) when the bbox path
   is full — the top pair shares capacity with the PDN.
3. Cross-tier edges take one F2F via plus the via stacks to reach the
   bond interface.
4. If the net is MLS-enabled and 2-D, trunk edges above a length
   threshold are instead routed on the *other tier's top pair* through
   two F2F vias ("2d-shared"), provided that pair and the F2F pads
   have headroom; otherwise the edge silently falls back to normal
   routing (matching how indiscriminate SOTA requests saturate the
   shared resource).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.design import Design
from repro.errors import RoutingError
from repro.netlist.net import Net
from repro.obs import metrics, trace
from repro.route.grid import CongestionGrid
from repro.route.rc import NetRC, RcTables
from repro.route.steiner import (RouteTopology, build_route_topology,
                                 tree_edge_cells)
from repro.route.tree import RouteEdge, RouteTree

import numpy as np


@dataclass(frozen=True)
class RouteConfig:
    """Router knobs.  Defaults tuned for the benchmark floorplans."""

    gcell_um: float = 5.0
    track_util: float = 0.8
    #: Fraction of each tier's top pair reserved for PDN stripes.
    pdn_reserved: tuple[float, float] = (0.15, 0.15)
    #: MLS only pays off past this edge length; shorter edges stay home.
    mls_min_edge_um: float = 8.0
    #: Length multiplier when every pair along the path is full.
    detour_factor: float = 1.3
    #: Pair selection thresholds in um: below t[0] -> pair 0, etc.
    pair_thresholds: tuple[float, ...] = (20.0, 70.0, 170.0)
    #: Minimum modeled length for coincident pins (pin escape stub).
    min_edge_um: float = 0.5
    #: Home-tier lower-metal stub (um, per end) a shared edge spends
    #: reaching its F2F pad — the fixed cost that makes MLS a net
    #: *loss* for short nets (Table I's degraded net).
    mls_escape_um: float = 2.5


class RoutingResult:
    """Routed trees + parasitics + the live congestion grid.

    A result that :meth:`GlobalRouter.route_all` produced also records
    what a later differential route needs to replay it: the requested
    MLS set, the design, placement and structure edit counts it was
    routed for, and the ECO edits made to it since.  The link to the
    diffed-against result is dropped on pickling.
    """

    def __init__(self, grid: CongestionGrid, config: RouteConfig):
        self.grid = grid
        self.config = config
        self.trees: dict[str, RouteTree] = {}
        self.rc: dict[str, NetRC] = {}
        #: MLS nets requested of route_all; None for any other result.
        self.mls_request: frozenset | None = None
        #: (design, placement, netlist, netlist edits, placement
        #: edits) routed for; see :meth:`GlobalRouter._structure`.
        self.basis: tuple | None = None
        #: Nets with an outstanding ECO edit (reroute/unroute, not yet
        #: undone by restore_net).  A result with edits cannot be
        #: replayed by a differential route.
        self.eco_pending: set[str] = set()
        #: Count of every ECO operation ever applied; lets an observer
        #: (IncrementalSta) tell whether the result changed since it
        #: last looked.
        self.eco_epoch = 0
        #: Nets whose tree differs from the result this one was diffed
        #: against (serial route order); None after a from-scratch route.
        self.changed_nets: tuple[str, ...] | None = None
        self._diffed_from: weakref.ref | None = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_diffed_from"] = None
        return state

    def diffed_from(self) -> "RoutingResult | None":
        """The result a differential route replayed (if still alive)."""
        return None if self._diffed_from is None else self._diffed_from()

    def _note_edit(self, net_name: str, outstanding: bool) -> None:
        self.eco_epoch += 1
        if outstanding:
            self.eco_pending.add(net_name)
        else:
            self.eco_pending.discard(net_name)

    def tree(self, net_name: str) -> RouteTree:
        try:
            return self.trees[net_name]
        except KeyError:
            raise RoutingError(f"net {net_name!r} is not routed") from None

    def net_rc(self, net_name: str) -> NetRC:
        try:
            return self.rc[net_name]
        except KeyError:
            raise RoutingError(f"net {net_name!r} has no parasitics") from None

    def wirelength_um(self) -> float:
        return sum(t.wirelength() for t in self.trees.values())

    def mls_applied_nets(self) -> set[str]:
        """Nets where at least one trunk edge actually went shared."""
        return {name for name, t in self.trees.items()
                if t.num_shared_edges() > 0}

    def f2f_via_count(self) -> int:
        return sum(t.f2f_count() for t in self.trees.values())

    def overflow_nets(self) -> int:
        return sum(1 for t in self.trees.values() if t.has_overflow())

    def stats(self) -> dict[str, float]:
        out = {
            "nets": len(self.trees),
            "wirelength_m": self.wirelength_um() * 1e-6,
            "mls_nets": len(self.mls_applied_nets()),
            "f2f_vias": self.f2f_via_count(),
            "overflow_nets": self.overflow_nets(),
        }
        out.update(self.grid.summary())
        return out


def desired_pair(length_um: float, n_pairs: int,
                 thresholds: tuple[float, ...]) -> int:
    """Length-based preferred layer pair (0 = lowest metals)."""
    for idx, limit in enumerate(thresholds):
        if length_um < limit:
            return min(idx, n_pairs - 1)
    return n_pairs - 1


class GlobalRouter:
    """Routes one design; supports per-net re-route for what-if STA."""

    def __init__(self, design: Design, config: RouteConfig | None = None):
        self.design = design
        self.cfg = config or RouteConfig()
        placement = design.require_placement()
        fp = design.require_floorplan()
        self.placement = placement
        self.grid = CongestionGrid(
            fp, design.tech.stacks, design.tech.f2f,
            gcell_um=self.cfg.gcell_um, track_util=self.cfg.track_util,
            pdn_reserved=self.cfg.pdn_reserved)
        #: Per-layer electricals every extraction reads (see rc.py).
        self.rc_tables = RcTables(design.tech.stacks, design.tech.f2f)

    # -- public API -----------------------------------------------------------

    def route_all(self, mls_nets: set[str] | frozenset = frozenset(),
                  previous: RoutingResult | None = None) -> RoutingResult:
        """Route every signal net; attach the result to the design.

        Nets route one at a time in the topology's long-nets-first
        order; that serial order is the router's contract, since every
        net's layer-pair choice reads the congestion the nets before it
        left.

        Pass the design's last full-route result as *previous* to route
        differentially (see :meth:`_route_all_diff`): nets whose inputs
        cannot have changed replay their previous tree, the rest route
        against the live grid — still bit-identical to a from-scratch
        route.  A *previous* that cannot be replayed exactly (another
        design, placement, netlist structure or config, or outstanding
        ECO edits) is ignored and counted in ``route.diff_fallbacks``.
        """
        mls_nets = frozenset(mls_nets)
        result = RoutingResult(self.grid, self.cfg)
        result.mls_request = mls_nets
        result.basis = self._basis()
        diff = previous is not None and self._replayable(previous)
        if previous is not None and not diff:
            metrics.inc("route.diff_fallbacks")
        # Long nets first (the topology's order): they claim upper
        # layers before congestion.  A replay walks this order too,
        # never *previous*'s trees order, which ECO probes
        # (reroute_net/restore_net) shuffle.
        topo = self.topology()
        nets = len(topo.nets)
        with trace.span("route.all", nets=nets,
                        mls_nets=len(mls_nets), diff=diff) as span:
            if diff:
                reused = self._route_all_diff(result, topo, previous)
                span.set(reused=reused, rerouted=nets - reused,
                         changed=len(result.changed_nets))
            else:
                for row in topo.order.tolist():
                    net = topo.nets[row]
                    self._commit_net(result, net, net.name in mls_nets,
                                     topo, row)
        metrics.inc("route.full_routes")
        metrics.inc("route.nets_routed", nets)
        metrics.inc("route.overflow_nets", result.overflow_nets())
        self.design.routing = result
        self.design.mls_nets = set(mls_nets)
        return result

    def _structure(self) -> tuple:
        """(netlist, netlist edits, placement edits) routes depend on.

        Together with the placement object itself, this is the one
        definition of "the same routing input" that both a replayable
        :attr:`RoutingResult.basis` and a current route topology
        compare against.
        """
        netlist = self.design.netlist
        return (netlist, netlist.edits, self.placement.edits)

    def _basis(self) -> tuple:
        return (self.design, self.placement) + self._structure()

    def _topology_key(self) -> tuple:
        grid = self.grid
        return self._structure() + (grid.gcell, grid.nx, grid.ny)

    def _current_topology(self) -> RouteTopology | None:
        """The placement's topology if it was built for this exact
        netlist structure, placement and grid; otherwise None."""
        topo = self.placement.route_topology
        if topo is not None and topo.key == self._topology_key():
            return topo
        return None

    def topology(self) -> RouteTopology:
        """Every signal net's route topology, rebuilt when stale.

        Cached on the placement, so every router and every route of
        one placement share it until the netlist structure, the
        placement or the grid geometry changes.
        """
        topo = self._current_topology()
        if topo is None:
            grid = self.grid
            nets = self.design.netlist.signal_nets()
            with trace.span("route.topology", nets=len(nets)):
                topo = build_route_topology(
                    nets, self.placement, grid.gcell, grid.nx, grid.ny,
                    key=self._topology_key())
            metrics.inc("route.topology_builds")
            self.placement.route_topology = topo
        return topo

    def _net_row(self, net: Net) -> tuple[RouteTopology, int]:
        """(topology, row) of *net*: the shared topology when current,
        otherwise a topology of this one net (an ECO after a netlist
        edit never rebuilds the whole design)."""
        topo = self._current_topology()
        if topo is not None:
            row = topo.rows.get(net.name)
            if row is not None:
                return topo, row
        grid = self.grid
        return build_route_topology([net], self.placement, grid.gcell,
                                    grid.nx, grid.ny), 0

    def _tree_cells(self, tree: RouteTree) -> tuple[list[int], list[int]]:
        """L-path cells of a routed tree, laid out as
        :meth:`RouteTopology.edge_cells`.

        Read from the current topology when the tree's nodes sit on
        its net's row; a tree routed before a netlist or placement
        edit computes them from its own nodes.
        """
        nodes = tree.nodes
        parents = [-1] * len(nodes)
        for edge in tree.edges:
            parents[edge.child] = edge.parent
        topo = self._current_topology()
        row = None if topo is None else topo.rows.get(tree.net_name)
        if row is not None:
            lo, hi = topo.pin_ptr[row], topo.pin_ptr[row + 1]
            if parents == topo.parent[lo:hi].tolist() \
                    and [n.x for n in nodes] == topo.x[lo:hi].tolist() \
                    and [n.y for n in nodes] == topo.y[lo:hi].tolist():
                return topo.edge_cells(row)
        grid = self.grid
        return tree_edge_cells([n.x for n in tree.nodes],
                               [n.y for n in tree.nodes], parents,
                               grid.gcell, grid.nx, grid.ny)

    def _replayable(self, previous: RoutingResult) -> bool:
        """Whether *previous* is a clean full route of this exact input.

        Design, placement and netlist compare by identity (none
        defines ``__eq__``) and the structure by edit counts, so a
        connectivity edit that keeps every count the same still
        refuses the replay.  *previous* also started from an empty
        grid; a router that already holds usage would route
        differently.
        """
        grid = self.grid
        return (previous.basis == self._basis()
                and not previous.eco_pending
                and previous.config == self.cfg
                and not grid.f2f_usage.any()
                and not any(plane.any() for tier in grid.usage
                            for plane in tier))

    def _route_all_diff(self, result: RoutingResult, topo: RouteTopology,
                        previous: RoutingResult) -> int:
        """Replay *previous* in serial order; returns #nets reused.

        The serial router routes net *i* against the usage of nets
        ``0..i-1`` and reads and writes only net *i*'s gcell footprint
        (see :meth:`RouteTopology.footprint`).  So if a net keeps its
        MLS flag and no earlier net's tree changed anywhere on its
        footprint, it sees exactly the grid it saw in *previous* and
        routes to exactly the same tree: its previous tree and RC are
        reused and only its usage is re-applied.  Every other net
        routes against the live grid; if its edges differ from the
        previous tree, its footprint joins the *dirty* set (old and new
        trees share one footprint — it depends only on pin locations).
        Usage values are integer-valued, so the grid is bit-identical
        to a from-scratch route's.

        A re-routed net whose edges come out unchanged keeps the
        previous tree and RC objects (no extraction).  *previous*
        was routed for the same structure (see :meth:`_replayable`),
        so every one of its trees sits on its row of *topo*.
        """
        extract = self.rc_tables.extract
        old_trees, old_rc = previous.trees, previous.rc
        old_mls, new_mls = previous.mls_request, result.mls_request
        dirty = np.zeros(self.grid.nx * self.grid.ny, dtype=bool)
        any_dirty = False
        changed: list[str] = []
        reused = 0
        for row in topo.order.tolist():
            net = topo.nets[row]
            name = net.name
            old = old_trees.get(name)
            mls = name in new_mls
            if old is not None and mls == (name in old_mls) \
                    and not (any_dirty and dirty[topo.footprint(row)].any()):
                self._apply_tree_usage(old, +1.0,
                                       edge_cells=topo.edge_cells(row))
                result.trees[old.net_name] = old
                result.rc[old.net_name] = old_rc[name]
                reused += 1
                continue
            tree = self._route_net(net, mls, True, topo, row)
            if old is not None and tree.edges == old.edges:
                result.trees[old.net_name] = old
                result.rc[old.net_name] = old_rc[name]
                continue
            result.trees[name] = tree
            result.rc[name] = extract(tree)
            changed.append(name)
            dirty[topo.footprint(row)] = True
            any_dirty = True
        result.changed_nets = tuple(changed)
        result._diffed_from = weakref.ref(previous)
        metrics.inc("route.nets_reused", reused)
        metrics.inc("route.nets_rerouted", len(topo.nets) - reused)
        metrics.inc("route.nets_changed", len(changed))
        return reused

    def _commit_net(self, result: RoutingResult, net: Net, mls: bool,
                    topo: RouteTopology, row: int) -> None:
        """Serial inner loop: route one net and record tree + RC."""
        tree = self._route_net(net, mls, True, topo, row)
        result.trees[net.name] = tree
        result.rc[net.name] = self.rc_tables.extract(tree)

    def reroute_net(self, result: RoutingResult, net: Net,
                    mls: bool) -> NetRC:
        """Re-route one net with/without MLS; updates *result* in place
        and returns the new parasitics.  Used by the what-if oracle and
        by targeted MLS application."""
        metrics.inc("route.reroutes")
        self.unroute_net(result, net)
        tree = self._route_net(net, mls=mls, commit=True)
        result.trees[net.name] = tree
        rc = self.rc_tables.extract(tree)
        result.rc[net.name] = rc
        if mls and tree.num_shared_edges() > 0:
            self.design.mls_nets.add(net.name)
        else:
            self.design.mls_nets.discard(net.name)
        return rc

    def unroute_net(self, result: RoutingResult, net: Net) -> None:
        """Remove a net's tree and release its grid resources."""
        result._note_edit(net.name, outstanding=True)
        tree = result.trees.pop(net.name, None)
        result.rc.pop(net.name, None)
        if tree is None:
            return
        self._apply_tree_usage(tree, -1.0)

    def restore_net(self, result: RoutingResult, net: Net,
                    tree: "RouteTree", rc: NetRC) -> None:
        """Re-commit a previously extracted (tree, rc) snapshot.

        The exact inverse of a what-if :meth:`reroute_net`: re-routing
        the net a second time would route against *today's* congestion
        and may not reproduce the tree committed during the full
        route, whereas re-applying the saved tree restores grid usage
        bit-exactly (usage values are integer-valued).  It also clears
        the net's outstanding ECO edit, so the result can again seed a
        differential route.
        """
        self.unroute_net(result, net)
        result.trees[net.name] = tree
        result.rc[net.name] = rc
        self._apply_tree_usage(tree, +1.0)
        result._note_edit(net.name, outstanding=False)
        if tree.num_shared_edges() > 0:
            self.design.mls_nets.add(net.name)
        else:
            self.design.mls_nets.discard(net.name)

    def probe_net(self, result: RoutingResult, net: Net
                  ) -> tuple[NetRC, NetRC, bool]:
        """What-if both MLS states of *net* WITHOUT changing any state.

        Returns (rc_off, rc_on, applied) where ``applied`` says whether
        the MLS attempt actually produced shared trunk edges.  The
        net's committed route, the congestion grid and the result maps
        are bit-identical afterwards.
        """
        metrics.inc("route.probes")
        committed = result.tree(net.name)
        cells = self._tree_cells(committed)
        topo, row = self._net_row(net)
        self._apply_tree_usage(committed, -1.0, edge_cells=cells)
        try:
            tree_off = self._route_net(net, False, False, topo, row)
            tree_on = self._route_net(net, True, False, topo, row)
        finally:
            self._apply_tree_usage(committed, +1.0, edge_cells=cells)
        extract = self.rc_tables.extract
        return (extract(tree_off), extract(tree_on),
                tree_on.num_shared_edges() > 0)

    def _apply_tree_usage(self, tree: RouteTree, sign: float,
                          edge_cells: tuple[list[int], list[int]]
                          | None = None) -> None:
        """Add (+1) or release (-1) a tree's grid resources.

        *edge_cells* are the tree's L-path cells when the caller
        already has them (see :meth:`_tree_cells`).
        """
        grid = self.grid
        cells, ptr = edge_cells if edge_cells is not None \
            else self._tree_cells(tree)
        for edge in tree.edges:
            child = edge.child
            path = cells[ptr[child]:ptr[child + 1]]
            grid.add_path(edge.tier, edge.pair, path, sign)
            if edge.shared:
                grid.add_f2f(path[0], sign)
                grid.add_f2f(path[-1], sign)
            elif edge.n_f2f:
                grid.add_f2f(path[0], sign * float(edge.n_f2f))

    # -- internals ----------------------------------------------------------------

    def _new_tree(self, net: Net, topo: RouteTopology,
                  row: int) -> RouteTree:
        """A tree holding *net*'s pin nodes from its topology row."""
        lo, hi = topo.pin_ptr[row], topo.pin_ptr[row + 1]
        tree = RouteTree(net.name)
        for x, y, tier, pin in zip(topo.x[lo:hi].tolist(),
                                   topo.y[lo:hi].tolist(),
                                   topo.tier[lo:hi].tolist(), net.pins()):
            tree.add_node(x, y, tier, pin)
        return tree

    def _route_net(self, net: Net, mls: bool, commit: bool,
                   topo: RouteTopology | None = None,
                   row: int = 0) -> RouteTree:
        if topo is None:
            topo, row = self._net_row(net)
        tree = self._new_tree(net, topo, row)
        lo, hi = topo.pin_ptr[row], topo.pin_ptr[row + 1]
        parents = topo.parent[lo:hi].tolist()
        lengths = topo.length[lo:hi].tolist()
        cells, ptr = topo.edge_cells(row)
        nodes = tree.nodes
        home_tier = nodes[0].tier
        is_2d = all(node.tier == home_tier for node in nodes)
        min_edge = self.cfg.min_edge_um

        for child in range(1, len(nodes)):
            parent = parents[child]
            length = max(min_edge, lengths[child])
            path = cells[ptr[child]:ptr[child + 1]]
            edge = None
            if mls and is_2d and length >= self.cfg.mls_min_edge_um:
                edge = self._try_shared_edge(parent, child, length,
                                             path, home_tier, commit)
            if edge is None:
                edge = self._normal_edge(parent, child, length, path,
                                         nodes[parent].tier,
                                         nodes[child].tier, commit)
            tree.add_edge(edge)
        return tree

    def _try_shared_edge(self, parent: int, child: int, length: float,
                         cells, home_tier: int,
                         commit: bool) -> RouteEdge | None:
        """Attempt an MLS trunk edge on the other tier's top pair."""
        other = 1 - home_tier
        top_other = self.grid.top_pair(other)
        if self.grid.path_load(other, top_other, cells) >= 1.0:
            return None
        start, end = cells[0], cells[-1]
        if (self.grid.f2f_load(start) >= 1.0
                or self.grid.f2f_load(end) >= 1.0):
            return None
        top_own = self.grid.top_pair(home_tier)
        # Climb our own stack to the bond interface at both ends; the
        # other tier's top metals sit directly across the F2F bond.
        via_hops = 4 * top_own
        edge = RouteEdge(parent=parent, child=child, length=length,
                         tier=other, pair=top_other, via_hops=via_hops,
                         n_f2f=2, shared=True,
                         escape_um=2.0 * self.cfg.mls_escape_um)
        if commit:
            self.grid.add_path(other, top_other, cells, 1.0)
            self.grid.add_f2f(start, 1.0)
            self.grid.add_f2f(end, 1.0)
        return edge

    def _normal_edge(self, parent: int, child: int, length: float,
                     cells, ptier: int, ctier: int,
                     commit: bool) -> RouteEdge:
        tier = ptier
        n_pairs = self.grid.num_pairs(tier)
        want = desired_pair(length, n_pairs, self.cfg.pair_thresholds)
        # Preference order: desired, then progressively lower (cheaper
        # vias), then higher.
        order = [want] + list(range(want - 1, -1, -1)) \
            + list(range(want + 1, n_pairs))
        chosen, overflowed = want, True
        for pair in order:
            if self.grid.path_load(tier, pair, cells) < 1.0:
                chosen, overflowed = pair, False
                break
        if overflowed:
            length *= self.cfg.detour_factor
        via_hops = 4 * chosen
        n_f2f = 0
        if ptier != ctier:
            n_f2f = 1
            # Climb from the wire pair to our top, cross, descend to the
            # sink's lowest metals on the other tier.
            top_own = self.grid.top_pair(ptier)
            via_hops = 2 * chosen + 2 * (top_own - chosen) \
                + 2 * self.grid.top_pair(ctier)
        edge = RouteEdge(parent=parent, child=child, length=length,
                         tier=tier, pair=chosen, via_hops=via_hops,
                         n_f2f=n_f2f, overflowed=overflowed)
        if commit:
            self.grid.add_path(tier, chosen, cells, 1.0)
            if n_f2f:
                self.grid.add_f2f(cells[0], float(n_f2f))
        return edge
