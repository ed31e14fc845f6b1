"""DFT tests: scan insertion, fault universe, fault simulation and the
two MLS DFT strategies."""

import numpy as np
import pytest

from repro.dft import (NET_BASED, WIRE_BASED, apply_mls_dft,
                       build_fault_universe, die_test_fault_sim,
                       insert_scan, simulate_faults,
                       untestable_fault_fraction)
from repro.dft.fault_sim import _ScanView
from repro.errors import DFTError
from repro.mls import oracle_select, route_with_mls
from repro.rng import stream
from repro.route import GlobalRouter
from repro.timing import run_sta

from tests.conftest import build_small_design, make_chain_netlist


@pytest.fixture()
def scanned_design(hetero_tech):
    design = build_small_design(hetero_tech, routed=False, buffered=False)
    chain = insert_scan(design)
    from repro.opt import insert_buffers
    insert_buffers(design)
    route_with_mls(design, set())
    return design, chain


class TestScan:
    def test_all_flops_scannable(self, scanned_design):
        design, chain = scanned_design
        flops = [i for i in design.netlist.sequential_instances()
                 if not i.is_macro]
        assert len(chain.elements) == len(flops)
        for inst in flops:
            assert inst.cell.is_scannable

    def test_chain_connectivity(self, scanned_design):
        design, chain = scanned_design
        nl = design.netlist
        # Walk from scan_in following SI pins.
        current = nl.port("scan_in").pin.net
        visited = []
        while True:
            si_sinks = [p for p in current.sinks
                        if p.owner is not None and p.name == "SI"]
            if not si_sinks:
                break
            inst = si_sinks[0].owner
            visited.append(inst.name)
            current = inst.output_pin.net
        assert visited == chain.elements
        # scan_out is reachable from the last Q net (possibly through
        # repeaters the buffering pass inserted).
        frontier = [current]
        found = False
        while frontier and not found:
            net = frontier.pop()
            for p in net.sinks:
                if p.port is not None and p.port.name == "scan_out":
                    found = True
                    break
                if p.owner is not None and p.owner.cell.name.startswith("BUF"):
                    out = p.owner.output_pin.net
                    if out is not None:
                        frontier.append(out)
        assert found

    def test_scan_enable_fans_to_all(self, scanned_design):
        design, chain = scanned_design
        se_net = design.netlist.net("scan_enable_net")
        se_owners = {p.owner.name for p in se_net.sinks
                     if p.owner is not None}
        assert set(chain.elements) <= se_owners

    def test_double_insertion_rejected(self, scanned_design):
        design, _ = scanned_design
        with pytest.raises(DFTError, match="already"):
            insert_scan(design)

    def test_netlist_still_valid(self, scanned_design):
        scanned_design[0].netlist.validate()


class TestFaultUniverse:
    def test_counts(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech, stages=3)
        universe = build_fault_universe(nl)
        assert universe.total > 0
        assert len(universe) <= universe.total     # collapsing shrinks

    def test_single_input_cells_collapsed(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech, stages=3)
        universe = build_fault_universe(nl)
        inv_input_faults = [f for f in universe
                            if "/A" in f.site and f.kind == "in"]
        assert not inv_input_faults

    def test_clock_pins_excluded(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech, stages=1)
        universe = build_fault_universe(nl)
        assert not any("/CK" in f.site for f in universe)


class TestFaultSim:
    def test_chain_fully_testable(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech, stages=4)
        universe = build_fault_universe(nl)
        result = simulate_faults(nl, universe, stream("fs", 1),
                                 patterns=128)
        # An inverter chain between scannable points detects everything.
        assert result.coverage_pct == pytest.approx(100.0)
        assert result.detected_total == result.total_faults

    def test_patterns_must_be_word_multiple(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech)
        universe = build_fault_universe(nl)
        with pytest.raises(DFTError):
            simulate_faults(nl, universe, stream("fs", 1), patterns=100)

    def test_cut_net_kills_coverage(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech, stages=4)
        universe = build_fault_universe(nl)
        rng = stream("fs", 1)
        # Cut the net right after the launch flop.
        launch = next(i for i in nl.sequential_instances()
                      if "launch" in i.name)
        cut = {launch.output_pin.net.name}
        result = simulate_faults(nl, universe, rng, patterns=128,
                                 cut_nets=cut)
        assert result.coverage_pct < 60.0

    def test_deterministic(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech, stages=4)
        universe = build_fault_universe(nl)
        a = simulate_faults(nl, universe, stream("fs", 7), patterns=128)
        b = simulate_faults(nl, universe, stream("fs", 7), patterns=128)
        assert a.detected_collapsed == b.detected_collapsed



def _filter_cone(view, net_name):
    """Reference cone: the BFS hit set, then one pass over the whole
    topological order."""
    hit: set[str] = set()
    frontier = [view.netlist.nets[net_name]]
    while frontier:
        cur = frontier.pop()
        if cur.name in view.cut_nets:
            continue
        for sink in cur.sinks:
            owner = sink.owner
            if owner is None or owner.is_sequential:
                continue
            if sink.name == "SE" or sink is owner.clock_pin:
                continue
            if owner.name in hit:
                continue
            hit.add(owner.name)
            out = owner.output_pin.net
            if out is not None:
                frontier.append(out)
    return [inst for inst in view.order if inst.name in hit]


class TestDownstreamCone:
    def test_rank_sort_matches_order_filter(self, scanned_design):
        """The cone sorted by topological rank equals the cone filtered
        through the whole order, for every net, with and without cut
        nets."""
        netlist = scanned_design[0].netlist
        names = sorted(netlist.nets)
        for cut in (set(), set(names[::97][:8])):
            view = _ScanView(netlist, 1, stream("cone", 1), cut_nets=cut,
                             pinned_ports={}, extra_observe=set())
            for name in names:
                got = [inst.name for inst in view.downstream_cone(name)]
                want = [inst.name for inst in _filter_cone(view, name)]
                assert got == want, name

class TestLogic3:
    def test_exact_x_through_mux(self, hetero_tech):
        """A MUX with a known select must resolve despite an X input."""
        from repro.dft.logic3 import eval_gate
        lib = hetero_tech.libraries["logic"]
        mux = lib.get("MUX2")
        ones = np.array([np.uint64(0xFFFFFFFFFFFFFFFF)])
        zeros = np.array([np.uint64(0)])
        # A unknown, B known-1, S known-1 (select B).
        value, known = eval_gate(
            mux,
            [zeros, ones, ones],
            [zeros, ones, ones],
        )
        assert int(known[0]) == 0xFFFFFFFFFFFFFFFF
        assert int(value[0]) == 0xFFFFFFFFFFFFFFFF

    def test_and_with_controlling_zero(self, hetero_tech):
        from repro.dft.logic3 import eval_gate
        lib = hetero_tech.libraries["logic"]
        and2 = lib.get("AND2")
        ones = np.array([np.uint64(0xFFFFFFFFFFFFFFFF)])
        zeros = np.array([np.uint64(0)])
        # A = known 0 (controlling), B = X -> out known 0.
        value, known = eval_gate(and2, [zeros, zeros], [ones, zeros])
        assert int(known[0]) == 0xFFFFFFFFFFFFFFFF
        assert int(value[0]) == 0

    def test_xor_with_x_stays_x(self, hetero_tech):
        from repro.dft.logic3 import eval_gate
        lib = hetero_tech.libraries["logic"]
        xor2 = lib.get("XOR2")
        ones = np.array([np.uint64(0xFFFFFFFFFFFFFFFF)])
        zeros = np.array([np.uint64(0)])
        _, known = eval_gate(xor2, [ones, zeros], [ones, zeros])
        assert int(known[0]) == 0


@pytest.fixture()
def mls_design(hetero_tech):
    """A scanned, routed 16PE with oracle MLS applied."""
    design = build_small_design(hetero_tech, routed=False, buffered=False)
    insert_scan(design)
    from repro.opt import insert_buffers
    insert_buffers(design)
    router, routing = route_with_mls(design, set())
    selected = oracle_select(design, router, routing)
    router, routing = route_with_mls(design, selected)
    return design, router, routing


class TestMlsDft:
    def test_opens_destroy_coverage(self, mls_design):
        design, _, _ = mls_design
        loss = untestable_fault_fraction(design, stream("dt", 3),
                                         patterns=128)
        assert loss > 5.0           # Figure 3: designs become untestable

    def test_net_based_restores(self, mls_design):
        design, router, routing = mls_design
        broken = die_test_fault_sim(design, stream("dt", 3),
                                    patterns=128, with_dft=False)
        before_applied = len(routing.mls_applied_nets())
        crossings, cells = apply_mls_dft(design, router, routing,
                                         NET_BASED)
        assert crossings == before_applied
        assert cells == crossings           # one MUX per net
        fixed = die_test_fault_sim(design, stream("dt", 3),
                                   patterns=128, with_dft=True)
        assert fixed.coverage_pct > broken.coverage_pct + 10.0
        design.netlist.validate()

    def test_wire_based_beats_net_based(self, hetero_tech):
        def run(strategy):
            design = build_small_design(hetero_tech, routed=False,
                                        buffered=False)
            insert_scan(design)
            from repro.opt import insert_buffers
            insert_buffers(design)
            router, routing = route_with_mls(design, set())
            selected = oracle_select(design, router, routing)
            router, routing = route_with_mls(design, selected)
            apply_mls_dft(design, router, routing, strategy)
            sim = die_test_fault_sim(design, stream("dt", 3),
                                     patterns=128, with_dft=True)
            sta = run_sta(design)
            return sim, sta
        net_sim, net_sta = run(NET_BASED)
        wire_sim, wire_sta = run(WIRE_BASED)
        # Table III shape: wire-based has more total faults and detects
        # more; its WNS is no better than net-based's.
        assert wire_sim.total_faults > net_sim.total_faults
        assert wire_sim.detected_total > net_sim.detected_total
        assert wire_sta.wns_ps <= net_sta.wns_ps + 1.0

    def test_unknown_strategy(self, mls_design):
        design, router, routing = mls_design
        with pytest.raises(DFTError):
            apply_mls_dft(design, router, routing, "quantum")
