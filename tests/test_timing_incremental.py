"""CSR kernel bit-identity and exact incremental-STA equivalence.

The contract under test: the vectorized CSR kernel and the frontier
incremental engine are not approximations — every float they produce
(arrivals, requireds, endpoint slacks, worst-predecessor tie-breaks)
is **exactly** equal to the reference serial loop
(``tests/sta_oracle.py``), on real routed designs, through arbitrary
MLS add/remove churn.
"""

from __future__ import annotations

import pytest

from repro.design import Design
from repro.errors import TimingError
from repro.mls import apply_mls_incremental, route_with_mls
from repro.mls.oracle import candidate_nets
from repro.netlist.generators.a7 import A7Config, generate_a7_dual_core
from repro.opt import insert_buffers
from repro.partition import partition_memory_on_logic
from repro.place import place_design
from repro.rng import stream
from repro.route import GlobalRouter
from repro.timing import IncrementalSta, run_sta
from repro.timing.sta import TimingReport

from tests.conftest import TEST_SEED, build_small_design, make_chain_netlist
from tests.sta_oracle import serial_sta


def build_small_a7(tech, seed: int = TEST_SEED) -> Design:
    """A deliberately tiny A7 pushed through place/buffer/route."""
    netlist = generate_a7_dual_core(
        A7Config(word_width=8, stage_depth=2, cache_banks=1, bus_width=4),
        tech.libraries, seed)
    design = Design(netlist, tech, 1500.0)
    design.tiers = partition_memory_on_logic(netlist)
    design.placement, design.floorplan = place_design(
        netlist, design.tiers)
    insert_buffers(design)
    route_with_mls(design, set())
    return design


def probe_and_restore(router: GlobalRouter, routing, sta: IncrementalSta,
                      nets) -> list[str]:
    """Table I's exact single-net probe on each of *nets*: commit the
    MLS route, patch *sta* with that net, restore the committed tree
    and patch again (``reroute_net`` -> ``update`` -> ``restore_net`` ->
    ``update``).  Returns the probed (routed) net names."""
    probed = []
    for net in nets:
        tree = routing.trees.get(net.name)
        if tree is None:
            continue
        rc = routing.rc.get(net.name)
        router.reroute_net(routing, net, mls=True)
        sta.update([net.name])
        router.restore_net(routing, net, tree, rc)
        sta.update([net.name])
        probed.append(net.name)
    return probed


def assert_reports_identical(got: TimingReport, want: TimingReport) -> None:
    """Bit-exact equality, including dict iteration order (TNS is an
    order-dependent float sum over endpoint_slack.values())."""
    assert got.arrival == want.arrival
    assert got.required == want.required
    assert got.worst_pred == want.worst_pred
    assert got.endpoint_slack == want.endpoint_slack
    assert list(got.endpoint_slack) == list(want.endpoint_slack)
    assert got.wns_ps == want.wns_ps
    assert got.tns_ns == want.tns_ns


class TestCsrKernel:
    def test_bit_identical_on_routed_design(self, routed_small_design):
        d = routed_small_design
        assert_reports_identical(run_sta(d), serial_sta(d))

    def test_bit_identical_on_chain(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech, stages=4)
        d = Design(nl, hetero_tech, 20000.0)
        d.tiers = partition_memory_on_logic(nl)
        d.placement, d.floorplan = place_design(
            nl, d.tiers)
        route_with_mls(d, set())
        assert_reports_identical(run_sta(d), serial_sta(d))

    def test_prebuilt_graph_csr_view_reusable(self, routed_small_design):
        from repro.timing import build_timing_graph
        graph = build_timing_graph(routed_small_design)
        first = run_sta(routed_small_design, graph=graph)
        again = run_sta(routed_small_design, graph=graph)
        assert_reports_identical(again, first)


class TestIncrementalSta:
    def _random_toggle_rounds(self, design: Design, rounds: int,
                              tag: str) -> None:
        """Property: through random MLS add/remove churn, the patched
        engine stays exactly equal to a from-scratch run_sta."""
        router = GlobalRouter(design)
        router.route_all()
        inc = IncrementalSta(design)
        assert_reports_identical(inc.report(), run_sta(design))

        pool = [n.name for n in candidate_nets(design)]
        rng = stream(f"inc-sta-{tag}", TEST_SEED)
        routing = design.require_routing()
        for _ in range(rounds):
            applied = set(design.mls_nets)
            off = [n for n in pool if n not in applied]
            take_on = int(rng.integers(1, 6))
            add = set(rng.choice(off, size=min(take_on, len(off)),
                                 replace=False).tolist()) if off else set()
            remove = set()
            if applied:
                take_off = int(rng.integers(0, 3))
                if take_off:
                    remove = set(rng.choice(sorted(applied),
                                            size=min(take_off, len(applied)),
                                            replace=False).tolist())
            apply_mls_incremental(design, router, routing,
                                  add=add, remove=remove, sta=inc)
            assert_reports_identical(inc.report(), run_sta(design))

    def test_random_toggles_match_full_sta_maeri(self, fresh_small_design):
        self._random_toggle_rounds(fresh_small_design, rounds=4,
                                   tag="maeri")

    def test_random_toggles_match_full_sta_a7(self, hetero_tech):
        self._random_toggle_rounds(build_small_a7(hetero_tech), rounds=3,
                                   tag="a7")

    def test_update_routing_follows_full_reroute(self, fresh_small_design):
        d = fresh_small_design
        inc = IncrementalSta(d)
        nets = {n.name for n in candidate_nets(d)[::9][:8]}
        route_with_mls(d, nets)
        rep = inc.update_routing()
        assert_reports_identical(rep, run_sta(d))
        # And back off again.
        route_with_mls(d, set())
        assert_reports_identical(inc.update_routing(), run_sta(d))

    def test_serial_kernel_agrees_on_patched_shared_graph(
            self, fresh_small_design):
        # The engine patches the shared graph's arrays in place, so a
        # full pass over that *same* graph must agree with the
        # incremental state, and so must the serial oracle.
        d = fresh_small_design
        router = GlobalRouter(d)
        routing = router.route_all()
        inc = IncrementalSta(d)
        net = candidate_nets(d)[3]
        router.reroute_net(routing, net, mls=True)
        rep = inc.update([net.name])
        assert_reports_identical(rep, run_sta(d, graph=inc.graph))
        assert_reports_identical(rep, serial_sta(d))

    def test_clock_period_change_rebinds(self, fresh_small_design):
        d = fresh_small_design
        inc = IncrementalSta(d)
        d.clock_period_ps = d.clock_period_ps / 2.0
        assert_reports_identical(inc.update([]), run_sta(d))

    def test_structural_change_raises(self, hetero_tech):
        d = build_small_design(hetero_tech, routed=False, buffered=False)
        route_with_mls(d, set())
        inc = IncrementalSta(d)
        insert_buffers(d)            # splits nets: structural edit
        route_with_mls(d, set())
        with pytest.raises(TimingError, match="structurally"):
            inc.update_routing()


class TestExactSlackOracle:
    def test_probes_restore_baseline_exactly(self, fresh_small_design):
        d = fresh_small_design
        router = GlobalRouter(d)
        routing = router.route_all()
        inc = IncrementalSta(d)
        base = run_sta(d)
        nets = candidate_nets(d)[:6]
        wl_before = {n.name: routing.tree(n.name).wirelength()
                     for n in nets}
        probed = probe_and_restore(router, routing, inc, nets)
        assert set(probed) <= {n.name for n in nets}
        # Grid, routing and timing state all rolled back bit-exactly.
        for n in nets:
            assert routing.tree(n.name).wirelength() == wl_before[n.name]
        assert_reports_identical(inc.report(), base)
        assert_reports_identical(run_sta(d), base)


class TestReportCaching:
    def test_summary_metrics_cached_on_first_access(self):
        rep = TimingReport(clock_period_ps=1000.0, graph=None,
                           arrival=[], required=[],
                           endpoint_slack={"a": -5.0, "b": 3.0},
                           worst_pred=[])
        assert rep.wns_ps == -5.0
        assert rep.tns_ns == pytest.approx(-0.005)
        assert rep.num_violating == 1
        # Documented immutability: cached values survive (and expose)
        # in-place mutation of endpoint_slack.
        rep.endpoint_slack["c"] = -100.0
        assert rep.wns_ps == -5.0
        assert rep.num_violating == 1

