"""Repeater-insertion tests."""

import pytest

from repro.design import Design
from repro.errors import PlacementError
from repro.netlist import NetlistBuilder
from repro.opt import insert_buffers
from repro.partition import partition_memory_on_logic
from repro.place import Placement
from repro.place.floorplan import Floorplan


def _line_design(hetero_tech, sink_positions, fanout_cell="INV"):
    """One driver at the origin, sinks at given positions."""
    builder = NetlistBuilder("line", hetero_tech.libraries)
    clock = builder.clock_net("clk")
    clock.attach(builder.netlist.add_port("ck", "in").pin)
    d_in = builder.input("d")
    q = builder.flop(d_in, clock, hint="drv")
    sinks = []
    for i, _ in enumerate(sink_positions):
        out = builder.gate("INV", q, hint=f"ld{i}")
        builder.output(f"o{i}", out)
        sinks.append(f"ld{i}")
    nl = builder.done()
    design = Design(nl, hetero_tech, 1000.0)
    design.tiers = partition_memory_on_logic(nl)
    fp = Floorplan(width=400, height=400)
    placement = Placement(nl, design.tiers)
    for name in nl.instances:
        placement.set_instance(name, 2.0, 2.0)
    for i, (x, y) in enumerate(sink_positions):
        inst = next(n for n in nl.instances if n.startswith(f"ld{i}"))
        placement.set_instance(inst, x, y)
    for port in nl.ports:
        placement.set_port(port, 0.0, 0.0)
    design.placement = placement
    design.floorplan = fp
    return design


class TestChains:
    def test_long_two_pin_net_gets_chain(self, hetero_tech):
        design = _line_design(hetero_tech, [(200.0, 2.0)])
        stats = insert_buffers(design, l_buf_um=40.0)
        assert stats.buffers_added >= 4          # ~200 um / 40 um
        design.netlist.validate()

    def test_spans_bounded_after_pass(self, hetero_tech):
        design = _line_design(hetero_tech, [(200.0, 2.0), (2.0, 350.0)])
        insert_buffers(design, l_buf_um=40.0)
        placement = design.placement
        for net in design.netlist.signal_nets():
            if net.driver is None:
                continue
            dloc = placement.of_pin(net.driver)
            for sink in net.sinks:
                sloc = placement.of_pin(sink)
                span = abs(dloc.x - sloc.x) + abs(dloc.y - sloc.y)
                assert span <= 40.0 + 1e-6

    def test_short_net_untouched(self, hetero_tech):
        design = _line_design(hetero_tech, [(10.0, 2.0)])
        stats = insert_buffers(design, l_buf_um=40.0)
        assert stats.buffers_added == 0


class TestFanout:
    def test_high_fanout_clustered(self, hetero_tech):
        sinks = [(5.0 + i, 5.0) for i in range(20)]
        design = _line_design(hetero_tech, sinks)
        insert_buffers(design, l_buf_um=40.0, max_fanout=8)
        for net in design.netlist.signal_nets():
            assert net.fanout <= 20          # root split into groups
        design.netlist.validate()

    def test_buffers_inherit_tier(self, hetero_tech):
        design = _line_design(hetero_tech, [(200.0, 2.0)])
        insert_buffers(design, l_buf_um=40.0)
        tiers = design.require_tiers()
        for name, inst in design.netlist.instances.items():
            if inst.attrs.get("buffered"):
                assert tiers.of_instance(name) == 0


class TestValidation:
    def test_param_checks(self, hetero_tech):
        design = _line_design(hetero_tech, [(10.0, 2.0)])
        with pytest.raises(PlacementError):
            insert_buffers(design, l_buf_um=-1)
        with pytest.raises(PlacementError):
            insert_buffers(design, max_fanout=1)

    def test_stats_recorded_on_design(self, hetero_tech):
        design = _line_design(hetero_tech, [(200.0, 2.0)])
        stats = insert_buffers(design)
        assert design.notes["buffering"] is stats
        assert stats.nets_processed > 0
