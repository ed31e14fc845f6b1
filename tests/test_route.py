"""Routing tests: Steiner, grid accounting, RC, router invariants."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError
from repro.place.placement import Location
from repro.route import (CongestionGrid, GlobalRouter, RcTables,
                         RouteConfig, RouteEdge, RouteTree,
                         build_route_topology)
from repro.route.router import desired_pair
from repro.place.floorplan import Floorplan
from repro.tech import F2FVia, NODE_16NM, NODE_28NM, default_stack
from repro.timing import run_sta

STACKS = (default_stack(NODE_16NM, 6), default_stack(NODE_28NM, 6))
F2F = F2FVia()
RC = RcTables(STACKS, F2F)


class _Net:
    def __init__(self, pins):
        self.name = "n"
        self.driver, self.sinks = pins[0], pins[1:]

    def pins(self):
        return [self.driver, *self.sinks]


class _Placement:
    def __init__(self, points):
        self.points = points

    def of_pin(self, pin):
        x, y = self.points[pin]
        return Location(float(x), float(y), 0)


def _topology(points, gcell=5.0, nx=100, ny=100):
    """Route topology of one net whose pins sit at *points*."""
    return build_route_topology([_Net(list(range(len(points))))],
                                _Placement(points), gcell, nx, ny)


def _mst_length(xs, ys, parents):
    return sum(abs(xs[i] - xs[p]) + abs(ys[i] - ys[p])
               for i, p in enumerate(parents) if p >= 0)


class TestSteiner:
    def test_single_point(self):
        topo = _topology([(1.0, 1.0)])
        assert topo.parent.tolist() == [-1]
        assert topo.cells.size == 0

    def test_two_points(self):
        topo = _topology([(0.0, 0.0), (3.0, 4.0)])
        assert topo.parent.tolist() == [-1, 0]
        assert topo.length.tolist() == [0.0, 7.0]

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)),
                    min_size=2, max_size=7, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_mst_is_minimal_vs_bruteforce(self, points):
        xs = np.array([p[0] for p in points], dtype=float)
        ys = np.array([p[1] for p in points], dtype=float)
        ours = _mst_length(xs, ys, _topology(points).parent.tolist())
        # MST length is unique; compare against networkx for ground
        # truth.
        import networkx as nx
        g = nx.Graph()
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                w = abs(xs[i] - xs[j]) + abs(ys[i] - ys[j])
                g.add_edge(i, j, weight=w)
        best = sum(d["weight"]
                   for *_e, d in nx.minimum_spanning_tree(g).edges(data=True))
        assert ours == pytest.approx(best)

    def test_l_path_cells_connected(self):
        topo = _topology([(0, 0), (22, 13)], nx=10, ny=10)
        cells = [(c // 10, c % 10) for c in topo.cells.tolist()]
        assert cells[0] == (0, 0)
        assert cells[-1] == (4, 2)
        for (a, b), (c, d) in zip(cells, cells[1:]):
            assert abs(a - c) + abs(b - d) == 1

    def test_l_path_clamps(self):
        topo = _topology([(-10, -10), (999, 999)], nx=4, ny=4)
        assert topo.cells.tolist() == [0, 4, 8, 12, 13, 14, 15]


class TestRouteTree:
    def test_validate_detects_disconnection(self):
        tree = RouteTree("n")
        tree.add_node(0, 0, 0)
        tree.add_node(1, 1, 0)
        with pytest.raises(RoutingError, match="disconnected"):
            tree.validate()

    def test_validate_detects_double_parent(self):
        tree = RouteTree("n")
        for _ in range(3):
            tree.add_node(0, 0, 0)
        tree.add_edge(RouteEdge(0, 1, 1.0, 0, 0))
        tree.add_edge(RouteEdge(0, 1, 1.0, 0, 0))
        with pytest.raises(RoutingError, match="two parents"):
            tree.validate()

    def test_usage_string(self):
        tree = RouteTree("n")
        tree.add_node(0, 0, 0)
        tree.add_node(10, 0, 0)
        tree.add_edge(RouteEdge(0, 1, 10.0, 0, 0))
        stacks = {0: STACKS[0], 1: STACKS[1]}
        assert tree.usage_string(stacks, 0) == "M1-2(bot)"
        tree.add_edge(RouteEdge(0, 1, 10.0, 1, 2))  # fake shared edge
        assert "M5-6(top)" in tree.usage_string(stacks, 0)


class TestCongestionGrid:
    def make_grid(self):
        fp = Floorplan(width=50, height=50)
        return CongestionGrid(fp, STACKS, F2F, gcell_um=5.0)

    def test_capacity_ordering(self):
        grid = self.make_grid()
        caps = grid.capacity[0]
        assert caps[0] > caps[1] > caps[2]    # finer pitch = more tracks

    def test_add_release_symmetric(self):
        grid = self.make_grid()
        cells = [1 * grid.ny + 1, 2 * grid.ny + 1, 3 * grid.ny + 1]
        grid.add_path(0, 1, cells, 1.0)
        assert grid.path_load(0, 1, cells) > 0
        assert grid.usage[0][1][2, 1] == 1.0     # flat ix * ny + iy
        grid.add_path(0, 1, cells, -1.0)
        assert grid.path_load(0, 1, cells) == 0.0

    def test_f2f_accounting(self):
        grid = self.make_grid()
        cell = 2 * grid.ny + 2
        grid.add_f2f(cell, 3.0)
        assert grid.f2f_load(cell) == pytest.approx(3.0 / grid.f2f_cap)
        assert grid.f2f_usage[2, 2] == 3.0
        grid.add_f2f(cell, -5.0)
        assert grid.f2f_load(cell) == 0.0      # clamped at zero

    def test_pdn_reservation_cuts_top_pair(self):
        fp = Floorplan(width=50, height=50)
        free = CongestionGrid(fp, STACKS, F2F, pdn_reserved=(0.0, 0.0))
        reserved = CongestionGrid(fp, STACKS, F2F, pdn_reserved=(0.5, 0.5))
        top = free.top_pair(0)
        assert reserved.capacity[0][top] < free.capacity[0][top]
        assert reserved.capacity[0][0] == free.capacity[0][0]

    def test_summary_keys(self):
        grid = self.make_grid()
        summary = grid.summary()
        assert "f2f_peak" in summary
        assert "util_t0p0" in summary and "overflow_t1p2" in summary


class TestDesiredPair:
    def test_thresholds(self):
        th = (20.0, 70.0, 170.0)
        assert desired_pair(5, 3, th) == 0
        assert desired_pair(30, 3, th) == 1
        assert desired_pair(100, 3, th) == 2
        assert desired_pair(500, 3, th) == 2

    def test_clamped_to_stack(self):
        assert desired_pair(500, 2, (20.0, 70.0, 170.0)) == 1


class TestExtractRC:
    def test_two_pin_hand_computed(self):
        from repro.netlist import Netlist
        from repro.tech import build_library
        nl = Netlist("rc")
        lib = build_library(NODE_28NM)
        g0 = nl.add_instance("g0", lib.get("INV"))
        g1 = nl.add_instance("g1", lib.get("INV"))
        net = nl.add_net("n")
        net.attach(g0.output_pin)
        net.attach(g1.pin("A"))

        tree = RouteTree("n")
        tree.add_node(0, 0, 1, pin=g0.output_pin)
        tree.add_node(10, 0, 1, pin=g1.pin("A"))
        tree.add_edge(RouteEdge(0, 1, 10.0, tier=1, pair=0))
        rc = RC.extract(tree)

        la, lb = STACKS[1].pairs()[0]
        r = (la.r_per_um + lb.r_per_um) / 2 * 10.0
        c = (la.c_per_um + lb.c_per_um) / 2 * 10.0
        sink_cap = g1.pin("A").cap_ff
        assert rc.wire_res_ohm == pytest.approx(r)
        assert rc.wire_cap_ff == pytest.approx(c)
        assert rc.load_ff == pytest.approx(c + sink_cap)
        expected = r * (c / 2 + sink_cap) / 1000.0
        assert rc.sink_delay_ps[g1.pin("A").full_name] == \
            pytest.approx(expected)

    def test_f2f_adds_rc(self):
        from repro.netlist import Netlist
        from repro.tech import build_library
        nl = Netlist("rc")
        lib = build_library(NODE_28NM)
        g0 = nl.add_instance("g0", lib.get("INV"))
        g1 = nl.add_instance("g1", lib.get("INV"))
        net = nl.add_net("n")
        net.attach(g0.output_pin)
        net.attach(g1.pin("A"))

        def build(n_f2f):
            tree = RouteTree("n")
            tree.add_node(0, 0, 0, pin=g0.output_pin)
            tree.add_node(10, 0, 0, pin=g1.pin("A"))
            tree.add_edge(RouteEdge(0, 1, 10.0, tier=0, pair=0,
                                    n_f2f=n_f2f))
            return RC.extract(tree)
        plain = build(0)
        shared = build(2)
        assert shared.wire_res_ohm == pytest.approx(
            plain.wire_res_ohm + 2 * F2F.resistance)
        assert shared.wire_cap_ff == pytest.approx(
            plain.wire_cap_ff + 2 * F2F.capacitance)

    def test_elmore_downstream_cap_dominance(self):
        """A sink behind more resistance sees a larger delay."""
        from repro.netlist import Netlist
        from repro.tech import build_library
        nl = Netlist("rc")
        lib = build_library(NODE_28NM)
        g0 = nl.add_instance("g0", lib.get("INV"))
        g1 = nl.add_instance("g1", lib.get("INV"))
        g2 = nl.add_instance("g2", lib.get("INV"))
        net = nl.add_net("n")
        net.attach(g0.output_pin)
        net.attach(g1.pin("A"))
        net.attach(g2.pin("A"))
        tree = RouteTree("n")
        tree.add_node(0, 0, 1, pin=g0.output_pin)
        tree.add_node(10, 0, 1, pin=g1.pin("A"))
        tree.add_node(30, 0, 1, pin=g2.pin("A"))
        tree.add_edge(RouteEdge(0, 1, 10.0, tier=1, pair=0))
        tree.add_edge(RouteEdge(1, 2, 20.0, tier=1, pair=0))
        rc = RC.extract(tree)
        assert rc.sink_delay_ps[g2.pin("A").full_name] > \
            rc.sink_delay_ps[g1.pin("A").full_name]


class TestGlobalRouter:
    def test_all_signal_nets_routed(self, routed_small_design):
        routing = routed_small_design.require_routing()
        signal = {n.name for n in routed_small_design.netlist.signal_nets()}
        assert set(routing.trees) == signal
        assert set(routing.rc) == signal

    def test_trees_validate(self, routed_small_design):
        for tree in routed_small_design.routing.trees.values():
            tree.validate()

    def test_cross_tier_nets_use_f2f(self, routed_small_design):
        d = routed_small_design
        tiers = d.require_tiers()
        for net in d.netlist.signal_nets():
            if tiers.is_cross_tier(net):
                assert d.routing.tree(net.name).f2f_count() >= 1

    def test_probe_is_nondestructive(self, fresh_small_design):
        d = fresh_small_design
        router = GlobalRouter(d)
        routing = router.route_all()
        before = run_sta(d).wns_ps
        usage_before = [u.copy() for tier in routing.grid.usage
                        for u in tier]
        nets = list(d.netlist.signal_nets())[::11][:60]
        for net in nets:
            router.probe_net(routing, net)
        usage_after = [u for tier in routing.grid.usage for u in tier]
        for ub, ua in zip(usage_before, usage_after):
            assert np.array_equal(ub, ua)
        assert run_sta(d).wns_ps == before

    def test_reroute_mls_roundtrip(self, fresh_small_design):
        d = fresh_small_design
        router = GlobalRouter(d)
        routing = router.route_all()
        tiers = d.require_tiers()
        net = next(n for n in d.netlist.signal_nets()
                   if not tiers.is_cross_tier(n)
                   and routing.tree(n.name).wirelength() > 20)
        rc_before = routing.net_rc(net.name).load_ff
        router.reroute_net(routing, net, mls=True)
        tree_on = routing.tree(net.name)
        if tree_on.num_shared_edges():
            assert net.name in d.mls_nets
            assert tree_on.f2f_count() >= 2
        router.reroute_net(routing, net, mls=False)
        assert net.name not in d.mls_nets
        assert routing.tree(net.name).num_shared_edges() == 0
        assert routing.net_rc(net.name).load_ff == pytest.approx(
            rc_before, rel=0.2)

    def test_unrouted_lookup_raises(self, routed_small_design):
        with pytest.raises(RoutingError):
            routed_small_design.routing.tree("ghost_net")
        with pytest.raises(RoutingError):
            routed_small_design.routing.net_rc("ghost_net")

    def test_stats_shape(self, routed_small_design):
        stats = routed_small_design.routing.stats()
        assert stats["nets"] > 0
        assert stats["wirelength_m"] > 0
        assert stats["mls_nets"] == 0         # routed without MLS

    def test_mls_request_produces_shared_routes(self, hetero_tech):
        from tests.conftest import build_small_design
        d = build_small_design(hetero_tech, routed=False)
        tiers = d.require_tiers()
        candidates = {n.name for n in d.netlist.signal_nets()
                      if not tiers.is_cross_tier(n)}
        router = GlobalRouter(d)
        routing = router.route_all(mls_nets=candidates)
        applied = routing.mls_applied_nets()
        assert applied
        assert applied <= candidates
        for name in list(applied)[:20]:
            tree = routing.tree(name)
            assert tree.f2f_count() >= 2 * tree.num_shared_edges()
