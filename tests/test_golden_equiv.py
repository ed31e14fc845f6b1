"""Cross-subsystem equivalence against pre-refactor golden fixtures.

The struct-of-arrays netlist core (ISSUE 6) rewrote the data structure
under placement, routing, timing, DFT and the harness.  These tests
pin the contract that the rewrite is *behaviorally invisible*:

* the checked-in golden digests (``tests/data/golden_equiv_*.json``,
  generated on the pre-refactor object-graph tree) still match for
  both design families — placement HPWL and locations, routed trees /
  RC / congestion-grid state, STA arrivals + ``worst_pred``
  tie-breaks, and die-test fault coverage;
* a full flat-pickle round trip of a routed design reproduces the
  same digests as the original in-memory objects, including a fresh
  STA run over the restored pin graph (net/pin iteration-order
  pinning — ``worst_pred`` resolves ties by graph build order, so any
  reordering would flip it).
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from tests.golden_util import (GOLDEN_FAMILIES, design_digests,
                               golden_path, netlist_digest,
                               placement_digest, routing_digest,
                               sta_digest)


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class TestRoundTripEquivalence:
    """Fast: serialized copy == original, subsystem by subsystem."""

    def test_routed_design_roundtrip_digests(self, routed_small_design):
        from repro.timing import run_sta
        design = routed_small_design
        restored = _roundtrip(design)
        assert netlist_digest(restored.netlist) \
            == netlist_digest(design.netlist)
        assert placement_digest(restored) == placement_digest(design)
        assert routing_digest(restored) == routing_digest(design)
        # STA over the restored pin graph: arrivals, requireds AND the
        # worst_pred tie-breaks must come back bit-identical.
        assert sta_digest(run_sta(restored)) == sta_digest(run_sta(design))

    def test_roundtrip_design_is_isolated(self, routed_small_design):
        """Restored copies never alias the original's netlist objects."""
        restored = _roundtrip(routed_small_design)
        name = next(iter(restored.netlist.nets))
        assert restored.netlist.nets[name] \
            is not routed_small_design.netlist.nets[name]
        # ...but the restored routing's pin refs alias the restored
        # netlist (identity holds inside one payload).
        tree = next(iter(restored.require_routing().trees.values()))
        root_pin = tree.nodes[0].pin
        assert root_pin is not None
        owner = root_pin.owner
        if owner is not None:
            assert owner is restored.netlist.instances[owner.name]

    def test_timing_graph_order_pins_after_roundtrip(
            self, routed_small_design):
        """Pin order and topo order of the timing graph are pinned —
        worst_pred ties resolve by build order, so both must survive
        the round trip exactly."""
        from repro.timing.graph import build_timing_graph
        restored = _roundtrip(routed_small_design)
        g1 = build_timing_graph(routed_small_design)
        g2 = build_timing_graph(restored)
        assert [p.full_name for p in g1.pins] == [p.full_name for p in g2.pins]
        assert np.array_equal(g1.topo, g2.topo)

    def test_signal_net_order_after_roundtrip(self, hetero_tech):
        from tests.conftest import make_chain_netlist
        nl = make_chain_netlist(hetero_tech, stages=5)
        restored = _roundtrip(nl)
        assert [n.name for n in restored.signal_nets()] \
            == [n.name for n in nl.signal_nets()]
        for name, net in nl.nets.items():
            assert [p.full_name for p in restored.nets[name].pins()] \
                == [p.full_name for p in net.pins()]


@pytest.mark.slow
class TestGoldenFixtures:
    """Slow: rebuild each family end to end, compare to fixtures."""

    @pytest.mark.parametrize("family", sorted(GOLDEN_FAMILIES))
    def test_family_matches_pre_refactor_golden(self, family):
        got = design_digests(family)
        want = json.loads(golden_path(family).read_text())
        for section in want:
            assert got[section] == want[section], \
                f"{family}.{section} diverged from pre-refactor golden"
