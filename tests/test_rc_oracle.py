"""The RC walker against the per-edge oracle, exactly.

:meth:`repro.route.rc.RcTables.extract` reads each edge's electricals
from tables built once per router and walks the tree with index lists.
It must equal the seed extractor in ``tests/route_oracle.py`` bit for
bit, sink order included: STA reads every Elmore delay and load, and
the SOTA/GNN selectors and the oracle labels compare them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError
from repro.mls import sota_select
from repro.route import (GlobalRouter, RcTables, RouteConfig, RouteEdge,
                         RouteTree)
from repro.tech import F2FVia, NODE_16NM, NODE_28NM, default_stack

from tests import route_oracle as oracle
from tests.conftest import build_small_design
from tests.test_timing_incremental import build_small_a7

#: The benchmark routing config, and one tight enough to detour edges.
CONFIGS = (RouteConfig(), RouteConfig(track_util=0.2))


def assert_matches_oracle(routing, router, stacks, f2f) -> None:
    """Every net's walker RC, and the RC the route stored, equals the
    oracle's, with the same sink order."""
    for name, tree in routing.trees.items():
        want = oracle.extract_rc(tree, stacks, f2f)
        for got in (router.rc_tables.extract(tree), routing.rc[name]):
            assert got == want
            assert list(got.sink_delay_ps) == list(want.sink_delay_ps)


class TestWholeDesigns:
    @pytest.mark.parametrize("family", ["maeri16", "a7"])
    def test_every_net_matches_oracle(self, family, hetero_tech):
        build = build_small_design if family == "maeri16" \
            else build_small_a7
        design = build(hetero_tech)
        stacks, f2f = design.tech.stacks, design.tech.f2f
        seen = dict(escape=0, cross_tier=0, detoured=0)
        for config in CONFIGS:
            router = GlobalRouter(design, config)
            base = router.route_all()
            assert_matches_oracle(base, router, stacks, f2f)
            picked = sota_select(design, base)
            router = GlobalRouter(design, config)
            shared = router.route_all(mls_nets=picked, previous=base)
            assert_matches_oracle(shared, router, stacks, f2f)
            for routing in (base, shared):
                for tree in routing.trees.values():
                    for edge in tree.edges:
                        seen["escape"] += edge.shared and \
                            edge.escape_um > 0.0
                        seen["cross_tier"] += edge.n_f2f == 1
                        seen["detoured"] += edge.overflowed
        assert all(seen.values()), seen


class _Pin:
    """Just what the extractors read of a sink pin."""

    def __init__(self, name: str, cap_ff: float):
        self.full_name = name
        self.cap_ff = cap_ff


#: 6+6 layers (3 pairs per tier) and 6+8 (tiers with 3 and 4 pairs).
_STACKS = (
    (default_stack(NODE_16NM, 6), default_stack(NODE_28NM, 6)),
    (default_stack(NODE_16NM, 6), default_stack(NODE_28NM, 8)),
)


@st.composite
def _trees(draw):
    """A random tree: nodes attach in a random order to any node
    already attached, so fan-outs have several children and a parent
    may carry a higher index than its children; edges are listed in a
    random order."""
    stacks = draw(st.sampled_from(_STACKS))
    n = draw(st.integers(1, 12))
    attach = draw(st.permutations(range(1, n)))
    edges = []
    placed = [0]
    for v in attach:
        parent = draw(st.sampled_from(placed))
        placed.append(v)
        tier = draw(st.integers(0, 1))
        shared = draw(st.booleans())
        edges.append(RouteEdge(
            parent=parent, child=v,
            length=draw(st.floats(0.0, 300.0)), tier=tier,
            pair=draw(st.integers(0, len(stacks[tier].pairs()) - 1)),
            via_hops=draw(st.integers(0, 12)),
            n_f2f=2 if shared else draw(st.integers(0, 1)),
            shared=shared,
            escape_um=draw(st.sampled_from([0.0, 5.0]))
            if shared else 0.0))
    order = draw(st.permutations(range(len(edges))))
    tree = RouteTree("rand")
    for idx in range(n):
        pin = None
        if idx == 0 or draw(st.booleans()):
            pin = _Pin(f"g{idx}/A", draw(st.floats(0.1, 5.0)))
        tree.add_node(float(idx), 0.0, 0, pin=pin)
    for k in order:
        tree.add_edge(edges[k])
    tree.validate()
    return tree, stacks


class TestRandomTrees:
    @given(case=_trees())
    @settings(max_examples=200, deadline=None)
    def test_walker_equals_oracle(self, case):
        tree, stacks = case
        f2f = F2FVia()
        got = RcTables(stacks, f2f).extract(tree)
        want = oracle.extract_rc(tree, stacks, f2f)
        assert got == want
        assert list(got.sink_delay_ps) == list(want.sink_delay_ps)


class TestErrors:
    def test_out_of_range_pair_names_net_and_edge(self):
        stacks = _STACKS[0]
        tree = RouteTree("top/alu_sum3")
        tree.add_node(0.0, 0.0, 0, pin=_Pin("d/Y", 1.0))
        tree.add_node(9.0, 0.0, 0, pin=_Pin("s/A", 1.0))
        tree.add_edge(RouteEdge(0, 1, 9.0, tier=0, pair=5))
        with pytest.raises(RoutingError,
                           match=r"net top/alu_sum3: edge 0->1 .*pair 5"):
            RcTables(stacks, F2FVia()).extract(tree)
