"""MLS selection policy tests: SOTA heuristic, oracle, application."""

import pytest

from repro.mls import (oracle_labels, oracle_select, route_with_mls,
                       sota_select)
from repro.mls.oracle import candidate_nets
from repro.route import GlobalRouter
from repro.timing import net_whatif_delta, run_sta

from tests.conftest import build_small_design
from tests.mls_eco import apply_mls_incremental


class TestSota:
    def test_selects_only_2d_nets(self, fresh_small_design):
        d = fresh_small_design
        selected = sota_select(d, d.require_routing())
        tiers = d.require_tiers()
        for name in selected:
            assert not tiers.is_cross_tier(d.netlist.net(name))

    def test_length_threshold_monotone(self, fresh_small_design):
        d = fresh_small_design
        strict = sota_select(d, d.require_routing(), min_hpwl_um=60.0)
        loose = sota_select(d, d.require_routing(), min_hpwl_um=10.0)
        assert strict <= loose

    def test_selects_long_nets(self, fresh_small_design):
        d = fresh_small_design
        selected = sota_select(d, min_hpwl_um=25.0)
        placement = d.require_placement()
        for name in selected:
            net = d.netlist.net(name)
            x0, y0, x1, y1 = placement.net_bbox(net)
            # length rule or congestion rule admitted it; without a
            # routing, only the length rule applies.
            assert (x1 - x0) + (y1 - y0) >= 25.0


class TestOracle:
    def test_labels_match_deltas(self, fresh_small_design):
        d = fresh_small_design
        router = GlobalRouter(d)
        routing = router.route_all()
        nets = candidate_nets(d)[::9][:40]
        labels = oracle_labels(d, router, routing, nets=nets)
        for net in nets:
            label = labels[net.name]
            delta = net_whatif_delta(d, router, routing, net)
            assert label.applied == delta.applied
            assert label.delta_ps == pytest.approx(delta.worst_delta_ps())
            assert label.helps == (delta.applied
                                   and delta.worst_delta_ps() <= -0.25)

    def test_select_subset_of_candidates(self, fresh_small_design):
        d = fresh_small_design
        router = GlobalRouter(d)
        routing = router.route_all()
        selected = oracle_select(d, router, routing)
        pool = {n.name for n in candidate_nets(d)}
        assert selected <= pool

    def test_oracle_improves_timing(self, hetero_tech):
        d = build_small_design(hetero_tech, routed=False)
        router, routing = route_with_mls(d, set())
        before = run_sta(d)
        selected = oracle_select(d, router, routing)
        route_with_mls(d, selected)
        after = run_sta(d)
        assert after.tns_ns >= before.tns_ns       # less negative
        assert after.wns_ps >= before.wns_ps - 1.0


class TestApply:
    def test_incremental_add_remove(self, hetero_tech):
        d = build_small_design(hetero_tech, routed=False)
        router, routing = route_with_mls(d, set())
        tiers = d.require_tiers()
        pick = [n.name for n in d.netlist.signal_nets()
                if not tiers.is_cross_tier(n)][:20]
        apply_mls_incremental(d, router, routing, add=set(pick))
        applied = routing.mls_applied_nets()
        assert applied <= set(pick)
        apply_mls_incremental(d, router, routing, remove=set(pick))
        assert not routing.mls_applied_nets()

    def test_add_remove_conflict(self, fresh_small_design):
        d = fresh_small_design
        router = GlobalRouter(d)
        routing = router.route_all()
        with pytest.raises(ValueError, match="both added and removed"):
            apply_mls_incremental(d, router, routing,
                                  add={"x"}, remove={"x"})

    def test_route_with_mls_sets_design_state(self, hetero_tech):
        d = build_small_design(hetero_tech, routed=False)
        tiers = d.require_tiers()
        wanted = {n.name for n in d.netlist.signal_nets()
                  if not tiers.is_cross_tier(n)}
        router, routing = route_with_mls(d, wanted)
        assert d.routing is routing
        assert d.mls_nets == wanted
