"""STA tests with hand-computed references."""

import math

import numpy as np
import pytest

from repro.design import Design
from repro.errors import TimingError
from repro.mls import route_with_mls
from repro.partition import partition_memory_on_logic
from repro.place import place_design
from repro.timing import (PORT_DRIVE_RES, build_timing_graph,
                          extract_worst_paths, net_whatif_delta, run_sta,
                          setup_time)
from repro.timing.delay import cell_output_delay
from repro.units import mhz_to_period_ps

from tests.conftest import TEST_SEED, make_chain_netlist
from tests.test_sta_oracle import fanout_edges


@pytest.fixture()
def chain_design(hetero_tech):
    """reg -> 3 inverters -> reg, placed and routed."""
    nl = make_chain_netlist(hetero_tech, stages=3)
    design = Design(nl, hetero_tech, 1000.0)
    design.tiers = partition_memory_on_logic(nl)
    design.placement, design.floorplan = place_design(
        nl, design.tiers)
    route_with_mls(design, set())
    return design


class TestChainSTA:
    def test_arrival_matches_hand_sum(self, chain_design):
        d = chain_design
        report = run_sta(d)
        graph = report.graph
        nl = d.netlist
        launch = next(i for i in nl.sequential_instances()
                      if "launch" in i.name)
        capture = next(i for i in nl.sequential_instances()
                       if "capture" in i.name)
        routing = d.require_routing()

        def stage_delay(inst):
            net = inst.output_pin.net
            rc = routing.net_rc(net.name)
            sink = net.sinks[0]
            return cell_output_delay(inst.cell, rc.load_ff) \
                + rc.sink_delay_ps[sink.full_name]

        expected = stage_delay(launch)
        inst = launch
        # Walk the inverter chain to the capture flop.
        while True:
            sink = inst.output_pin.net.sinks[0]
            inst = sink.owner
            if inst is capture:
                break
            expected += stage_delay(inst)
        endpoint = capture.pin("D").full_name
        arrival = report.arrival[graph.pin_index[endpoint]]
        assert arrival == pytest.approx(expected, rel=1e-9)

    def test_slack_formula(self, chain_design):
        report = run_sta(chain_design)
        nl = chain_design.netlist
        capture = next(i for i in nl.sequential_instances()
                       if "capture" in i.name)
        endpoint = capture.pin("D").full_name
        arrival = report.arrival[report.graph.pin_index[endpoint]]
        expected_slack = (chain_design.clock_period_ps
                          - setup_time(capture.cell) - arrival)
        assert report.endpoint_slack[endpoint] == \
            pytest.approx(expected_slack)

    def test_meets_timing_at_low_frequency(self, chain_design):
        chain_design.clock_period_ps = mhz_to_period_ps(100)
        report = run_sta(chain_design)
        assert report.wns_ps == 0.0
        assert report.tns_ns == 0.0
        assert report.num_violating == 0
        assert report.effective_freq_mhz() == pytest.approx(100.0)

    def test_violates_at_high_frequency(self, chain_design):
        chain_design.clock_period_ps = mhz_to_period_ps(20000)
        report = run_sta(chain_design)
        assert report.wns_ps < 0
        assert report.num_violating >= 1
        # Effective frequency accounts for the violation.
        assert report.effective_freq_mhz() < 20000

    def test_worst_path_walks_the_chain(self, chain_design):
        chain_design.clock_period_ps = mhz_to_period_ps(20000)
        report = run_sta(chain_design)
        paths = extract_worst_paths(report, 1)
        assert len(paths) == 1
        path = paths[0]
        assert path.depth >= 3
        names = [p.full_name for p in path.pins]
        assert any("launch" in n for n in names)
        assert path.slack_ps == report.wns_ps

    def test_tns_is_sum_of_negatives(self, chain_design):
        chain_design.clock_period_ps = mhz_to_period_ps(20000)
        report = run_sta(chain_design)
        expected = sum(s for s in report.endpoint_slack.values() if s < 0)
        assert report.tns_ns == pytest.approx(expected / 1000.0)


class TestGraphStructure:
    def test_clock_pins_not_in_arcs(self, routed_small_design):
        graph = build_timing_graph(routed_small_design)
        for inst in routed_small_design.netlist.sequential_instances():
            ck = inst.clock_pin
            idx = graph.pin_index[ck.full_name]
            lo, hi = fanout_edges(graph, idx)
            assert lo == hi
            assert graph.in_ptr[idx] == graph.in_ptr[idx + 1]

    def test_sequential_outputs_are_sources(self, routed_small_design):
        graph = build_timing_graph(routed_small_design)
        source_idx = set(graph.src_idx.tolist())
        for inst in routed_small_design.netlist.sequential_instances():
            q = graph.pin_index[inst.output_pin.full_name]
            assert q in source_idx

    def test_endpoints_have_setup(self, routed_small_design):
        graph = build_timing_graph(routed_small_design)
        setups = dict(zip(graph.ep_idx.tolist(), graph.ep_setup.tolist()))
        for inst in routed_small_design.netlist.sequential_instances():
            d_idx = graph.pin_index[inst.pin("D").full_name]
            assert setups[d_idx] == pytest.approx(setup_time(inst.cell))

    def test_topological_order_complete(self, routed_small_design):
        graph = build_timing_graph(routed_small_design)
        assert sorted(graph.topo.tolist()) == list(range(len(graph.pins)))
        # Every edge runs from a lower to a higher topological rank
        # and level, and edges sit in serial (source-rank) order.
        src_rank = graph.rank[graph.edge_src]
        assert np.all(src_rank < graph.rank[graph.edge_dst])
        assert np.all(graph.level[graph.edge_src]
                      < graph.level[graph.edge_dst])
        assert np.all(np.diff(src_rank) >= 0)

    def test_false_path_port_excluded(self, hetero_tech):
        from tests.conftest import build_small_design
        from repro.dft import insert_scan
        d = build_small_design(hetero_tech, routed=False, buffered=False)
        insert_scan(d)
        from repro.opt import insert_buffers
        insert_buffers(d)
        route_with_mls(d, set())
        graph = build_timing_graph(d)
        se_idx = graph.pin_index["port:scan_enable"]
        assert se_idx not in set(graph.src_idx.tolist())
        out_eps = set(graph.ep_idx.tolist())
        so_idx = graph.pin_index["port:scan_out"]
        assert so_idx not in out_eps

    def test_cycle_rejected(self, routed_small_design):
        from repro.timing.graph import _levelize
        src = np.array([0, 1, 2], dtype=np.int32)
        dst = np.array([1, 2, 1], dtype=np.int32)
        with pytest.raises(TimingError, match="cycle"):
            _levelize(3, src, dst)


class TestWhatIf:
    def test_delta_matches_probe_rc(self, fresh_small_design):
        from repro.route import GlobalRouter
        d = fresh_small_design
        router = GlobalRouter(d)
        routing = router.route_all()
        tiers = d.require_tiers()
        net = next(n for n in d.netlist.signal_nets()
                   if not tiers.is_cross_tier(n) and n.fanout >= 1
                   and n.driver is not None and n.driver.owner is not None
                   and routing.tree(n.name).wirelength() > 20)
        delta = net_whatif_delta(d, router, routing, net)
        rc_off, rc_on, applied = router.probe_net(routing, net)
        assert delta.applied == applied
        drive = net.driver.owner.cell.drive_res
        assert delta.delta_driver_ps == pytest.approx(
            drive * (rc_on.load_ff - rc_off.load_ff) / 1000.0)

    def test_worst_and_best_bounds(self, fresh_small_design):
        from repro.route import GlobalRouter
        d = fresh_small_design
        router = GlobalRouter(d)
        routing = router.route_all()
        for net in list(d.netlist.signal_nets())[::17][:30]:
            delta = net_whatif_delta(d, router, routing, net)
            best = delta.delta_driver_ps + min(
                delta.delta_sink_ps.values(), default=0.0)
            assert best <= delta.worst_delta_ps() + 1e-9

    def test_whatif_matches_full_sta_reroute(self, fresh_small_design):
        """Property: for a sampled net, the what-if delta equals the
        arrival-time change measured by a from-scratch STA after an
        actual reroute.  Commit the off-route first so the probe's
        baseline coincides with the committed tree, then toggle MLS on
        and difference the two reports per sink."""
        from repro.mls.oracle import candidate_nets
        from repro.route import GlobalRouter
        from repro.rng import stream
        d = fresh_small_design
        router = GlobalRouter(d)
        routing = router.route_all()
        pool = [n for n in candidate_nets(d)
                if n.driver is not None and n.driver.owner is not None]
        rng = stream("whatif-prop", TEST_SEED)
        for idx in rng.choice(len(pool), size=5, replace=False):
            net = pool[int(idx)]
            router.reroute_net(routing, net, mls=False)
            off = run_sta(d)
            delta = net_whatif_delta(d, router, routing, net)
            router.reroute_net(routing, net, mls=True)
            on = run_sta(d)
            for sink in delta.delta_sink_ps:
                a_off = off.arrival[off.graph.pin_index[sink]]
                a_on = on.arrival[on.graph.pin_index[sink]]
                if math.isinf(a_off) or math.isinf(a_on):
                    continue    # sink unreachable from any source
                assert a_on - a_off == pytest.approx(
                    delta.delta_driver_ps + delta.delta_sink_ps[sink],
                    abs=1e-6)
            router.reroute_net(routing, net, mls=False)


class TestEffectiveFreq:
    def _report(self, period_ps: float, slack: dict[str, float]):
        from repro.timing.sta import TimingReport
        return TimingReport(clock_period_ps=period_ps, graph=None,
                            arrival=[], required=[],
                            endpoint_slack=slack, worst_pred=[])

    def test_normal_period(self):
        assert self._report(1000.0, {"a": 50.0}).effective_freq_mhz() \
            == pytest.approx(1000.0)

    def test_wns_stretches_period(self):
        assert self._report(1000.0, {"a": -250.0}).effective_freq_mhz() \
            == pytest.approx(800.0)

    def test_zero_period_is_inf_not_crash(self):
        # Regression: 1e6 / (0 - 0) used to raise ZeroDivisionError.
        assert self._report(0.0, {}).effective_freq_mhz() == math.inf

    def test_negative_period_is_inf(self):
        assert self._report(-5.0, {}).effective_freq_mhz() == math.inf
