"""Placement tests: floorplan, quadratic solve, bisection, legalize."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlacementError
from repro.netlist import Netlist, NetlistBuilder
from repro.netlist.generators import MaeriConfig, generate_maeri
from repro.partition import partition_memory_on_logic
from repro.place import (Floorplan, legalize_tier, make_floorplan,
                         place_design, quadratic_solve)
from repro.place.floorplan import ROW_HEIGHT_UM
from repro.place.legalize import legalize_macros
from repro.rng import stream
from repro.tech import NODE_28NM, build_library

LIB = build_library(NODE_28NM)


class TestFloorplan:
    def test_dimensions_positive(self):
        with pytest.raises(PlacementError):
            Floorplan(width=0, height=10)

    def test_macro_band_bounds(self):
        with pytest.raises(PlacementError):
            Floorplan(width=10, height=10, macro_band_h=10)

    def test_rows_and_sites(self):
        fp = Floorplan(width=20, height=10)
        assert fp.num_rows == int(10 / ROW_HEIGHT_UM)

    def test_clamp(self):
        fp = Floorplan(width=20, height=10)
        assert fp.clamp(-5, 100) == (0.0, 10.0)
        assert fp.clamp(5, 5) == (5.0, 5.0)

    def test_make_floorplan_scales_with_area(self, hetero_tech):
        small = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                               hetero_tech.libraries, 5)
        big = generate_maeri(MaeriConfig(pe_count=64, bandwidth=16),
                             hetero_tech.libraries, 5)
        assert make_floorplan(big).width > make_floorplan(small).width

    def test_make_floorplan_reserves_macro_band(self, hetero_tech):
        nl = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                            hetero_tech.libraries, 5)
        fp = make_floorplan(nl)
        assert fp.macro_band_h > 0


def _two_cell_netlist():
    """a(port) - g0 - g1 - y(port), for exact quadratic checks."""
    nl = Netlist("two")
    a = nl.add_port("a", "in")
    y = nl.add_port("y", "out")
    n0 = nl.add_net("n0")
    n1 = nl.add_net("n1")
    n2 = nl.add_net("n2")
    n0.attach(a.pin)
    g0 = nl.add_instance("g0", LIB.get("INV"))
    g1 = nl.add_instance("g1", LIB.get("INV"))
    n0.attach(g0.pin("A"))
    n1.attach(g0.output_pin)
    n1.attach(g1.pin("A"))
    n2.attach(g1.output_pin)
    n2.attach(y.pin)
    return nl


class TestQuadratic:
    def test_chain_equispaces_between_anchors(self):
        nl = _two_cell_netlist()
        fp = Floorplan(width=30, height=30)
        fixed = {"port:a": (0.0, 15.0), "port:y": (30.0, 15.0)}
        pos = quadratic_solve(nl, fixed, fp)
        # Minimizing sum of squared segment lengths spaces the two
        # movable cells at 10 and 20.
        assert pos["g0"][0] == pytest.approx(10.0, abs=0.1)
        assert pos["g1"][0] == pytest.approx(20.0, abs=0.1)
        assert pos["g0"][1] == pytest.approx(15.0, abs=0.1)

    def test_empty_movable(self):
        nl = _two_cell_netlist()
        fp = Floorplan(width=30, height=30)
        assert quadratic_solve(nl, {}, fp, movable=[]) == {}

    def test_anchors_pull(self):
        nl = _two_cell_netlist()
        fp = Floorplan(width=30, height=30)
        fixed = {"port:a": (0.0, 15.0), "port:y": (30.0, 15.0)}
        free = quadratic_solve(nl, fixed, fp)
        anchored = quadratic_solve(nl, fixed, fp,
                                   anchors={"g0": (5.0, 5.0)},
                                   anchor_weight=100.0)
        assert anchored["g0"][1] < free["g0"][1]       # pulled down


class TestLegalize:
    def test_no_overlap_within_rows(self, hetero_tech):
        nl = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                            hetero_tech.libraries, 5)
        fp = make_floorplan(nl)
        names = [n for n, i in nl.instances.items() if not i.is_macro]
        rng = np.random.default_rng(0)
        pos = {n: (rng.uniform(0, fp.width),
                   rng.uniform(0, fp.core_height)) for n in names}
        legal = legalize_tier(nl, names, pos, fp)
        assert set(legal) == set(names)
        by_row: dict[float, list[tuple[float, float]]] = {}
        for name, (x, y) in legal.items():
            width = max(fp.site_width,
                        nl.instance(name).cell.area_um2 / fp.row_height)
            by_row.setdefault(y, []).append((x - width / 2, x + width / 2))
        for intervals in by_row.values():
            intervals.sort()
            for (l0, r0), (l1, r1) in zip(intervals, intervals[1:]):
                assert r0 <= l1 + 1e-6, "cells overlap in a row"

    def test_rejects_macros(self, hetero_tech):
        nl = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                            hetero_tech.libraries, 5)
        fp = make_floorplan(nl)
        macro = next(n for n, i in nl.instances.items() if i.is_macro)
        with pytest.raises(PlacementError, match="macro"):
            legalize_tier(nl, [macro], {macro: (1, 1)}, fp)

    def test_capacity_exceeded(self):
        nl = Netlist("fat")
        for i in range(200):
            nl.add_instance(f"g{i}", LIB.get("BUF_X4"))
        fp = Floorplan(width=5, height=3)
        pos = {f"g{i}": (1.0, 1.0) for i in range(200)}
        with pytest.raises(PlacementError, match="row space"):
            legalize_tier(nl, list(pos), pos, fp)

    def test_macro_band_layout(self, hetero_tech):
        nl = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                            hetero_tech.libraries, 5)
        fp = make_floorplan(nl)
        macros = [n for n, i in nl.instances.items() if i.is_macro]
        pos = {n: (10.0 * k, 10.0) for k, n in enumerate(macros)}
        legal = legalize_macros(nl, macros, pos, fp)
        for x, y in legal.values():
            assert y >= fp.core_height          # inside the band
            assert 0 <= x <= fp.width


class TestBisection:
    def test_keeps_clusters_local(self, hetero_tech):
        nl = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                            hetero_tech.libraries, 5)
        tiers = partition_memory_on_logic(nl)
        placement, fp = place_design(nl, tiers)
        # Each PE's cells should sit well inside the die span.
        for pe in ("pe0", "pe7", "pe15"):
            xs = [placement.of_instance(n).x for n in nl.instances
                  if n.startswith(pe + "/")]
            assert xs, pe
            assert max(xs) - min(xs) < 0.8 * fp.width

    def test_deterministic(self, hetero_tech):
        nl = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                            hetero_tech.libraries, 5)
        tiers = partition_memory_on_logic(nl)
        p1, _ = place_design(nl, tiers)
        p2, _ = place_design(nl, tiers)
        for name in nl.instances:
            assert p1.of_instance(name) == p2.of_instance(name)

    def test_all_instances_inside_die(self, routed_small_design):
        d = routed_small_design
        fp = d.require_floorplan()
        for name in d.netlist.instances:
            loc = d.placement.of_instance(name)
            assert -1e-6 <= loc.x <= fp.width + 1e-6
            assert -1e-6 <= loc.y <= fp.height + 1e-6


class TestPlacementContainer:
    def test_unplaced_raises(self, hetero_tech):
        nl = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                            hetero_tech.libraries, 5)
        tiers = partition_memory_on_logic(nl)
        from repro.place import Placement
        placement = Placement(nl, tiers)
        with pytest.raises(PlacementError):
            placement.of_instance(next(iter(nl.instances)))
        with pytest.raises(PlacementError):
            placement.validate()

    def test_hpwl_positive(self, routed_small_design):
        assert routed_small_design.placement.hpwl() > 0

    def test_net_bbox_ordering(self, routed_small_design):
        d = routed_small_design
        for net in list(d.netlist.signal_nets())[:50]:
            x0, y0, x1, y1 = d.placement.net_bbox(net)
            assert x0 <= x1 and y0 <= y1


#: HPWL of the original (pre cached-Laplacian) placer, captured once on
#: the designs below.  The cached engine is free to pick different
#: solver internals (and does — see repro.place.system), so positions
#: are not seed-identical; quality must stay within tolerance instead.
SEED_HPWL = {
    "maeri16": 22290.639518144355,
    "random_logic": 5799.924244786914,
}
#: Allowed relative HPWL regression vs the recorded seed placer.
HPWL_TOL = 0.02


class TestHpwlQualityRegression:
    """Wirelength-quality gate for the cached-Laplacian engine."""

    def _place_hpwl(self, nl):
        tiers = partition_memory_on_logic(nl)
        placement, _ = place_design(nl, tiers)
        return placement.hpwl()

    def test_maeri16_quality(self, hetero_tech):
        nl = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                            hetero_tech.libraries, 1234)
        hpwl = self._place_hpwl(nl)
        ref = SEED_HPWL["maeri16"]
        assert hpwl <= ref * (1.0 + HPWL_TOL), \
            f"HPWL {hpwl:.1f} regressed more than {HPWL_TOL:.0%} " \
            f"vs seed placer {ref:.1f}"

    def test_random_logic_quality(self, hetero_tech):
        from repro.netlist.builder import NetlistBuilder
        from repro.netlist.generators import random_cloud
        builder = NetlistBuilder("randlogic", hetero_tech.libraries)
        ins = [builder.input(f"i{k}") for k in range(12)]
        outs = random_cloud(builder, ins, out_count=8, depth=12,
                            width=40, rng=stream("cloud", 1234))
        for net in outs:
            builder.output(f"o_{net.name}", net)
        nl = builder.done()
        hpwl = self._place_hpwl(nl)
        ref = SEED_HPWL["random_logic"]
        assert hpwl <= ref * (1.0 + HPWL_TOL), \
            f"HPWL {hpwl:.1f} regressed more than {HPWL_TOL:.0%} " \
            f"vs seed placer {ref:.1f}"
