"""Cached-Laplacian placement system contract.

Locks the guarantee the placement engine rework makes (see
repro.place.system / repro.place.bisection): serving every bisection
level from one cached :class:`PlacementSystem` returns exactly the
positions a fresh per-level rebuild would (same assembly, same
factorization), across arbitrary anchor sets and weights.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.design import TechSetup
from repro.netlist.generators import MaeriConfig, generate_maeri
from repro.partition import partition_memory_on_logic
from repro.place import (NetConnectivity, Placement, PlacementSystem,
                         bisection_place, make_floorplan, quadratic_solve)
from repro.place.legalize import legalize_macros
from repro.place.placer import _pin_ports


@lru_cache(maxsize=1)
def _small_setup():
    """MAERI-16 mid-flow state: ports pinned, macros legalized+fixed.

    This is exactly the state ``place_design`` hands to the bisection
    refinement, cached at module scope so hypothesis examples reuse it.
    """
    tech = TechSetup.build("16nm", "28nm", 6)
    nl = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                        tech.libraries, 1234)
    tiers = partition_memory_on_logic(nl)
    fp = make_floorplan(nl)
    fixed = _pin_ports(nl, tiers, fp, Placement(nl, tiers))
    macros = [n for n, i in nl.instances.items() if i.is_macro]
    std = [n for n, i in nl.instances.items() if not i.is_macro]
    conn = NetConnectivity.from_netlist(nl)
    rough = quadratic_solve(nl, fixed, fp, conn=conn)
    fixed = dict(fixed)
    fixed.update(legalize_macros(nl, macros, rough, fp))
    return nl, fp, fixed, std, conn


@lru_cache(maxsize=1)
def _shared_system() -> PlacementSystem:
    nl, fp, fixed, std, conn = _small_setup()
    return PlacementSystem(nl, fixed, fp, movable=std, conn=conn)


class TestCachedSystemBitIdentity:
    @given(seed=st.integers(0, 2**32 - 1),
           weight=st.floats(0.0, 50.0))
    @settings(max_examples=12, deadline=None)
    def test_reused_system_matches_fresh_rebuild(self, seed, weight):
        """Cached pattern + anchor overlay == full per-solve rebuild.

        The reused system keeps one assembled Laplacian and adds only
        the anchor diagonal per solve; the reference leg rebuilds
        connectivity, assembly and factorization from the netlist.
        Positions must agree bit-for-bit (== on floats, no tolerance).
        """
        nl, fp, fixed, std, _ = _small_setup()
        system = _shared_system()
        rng = np.random.default_rng(seed)
        count = int(rng.integers(0, 24))
        picked = rng.choice(len(std), size=count, replace=False)
        anchors = {std[i]: (float(rng.uniform(0, fp.width)),
                            float(rng.uniform(0, fp.core_height)))
                   for i in picked}
        cached = system.solve(anchors, anchor_weight=weight)
        rebuilt = quadratic_solve(nl, fixed, fp, movable=std,
                                  anchors=anchors, anchor_weight=weight)
        assert cached == rebuilt

    def test_shared_connectivity_matches_fresh(self):
        """Passing a prebuilt NetConnectivity never changes results."""
        nl, fp, fixed, std, conn = _small_setup()
        shared = quadratic_solve(nl, fixed, fp, movable=std, conn=conn)
        fresh = quadratic_solve(nl, fixed, fp, movable=std)
        assert shared == fresh

    def test_bisection_reuse_flag_is_inert(self):
        """reuse_system=True (cached) == False (rebuild per level)."""
        nl, fp, fixed, std, conn = _small_setup()
        cached = bisection_place(nl, fixed, fp, movable=std, conn=conn,
                                 reuse_system=True)
        rebuilt = bisection_place(nl, fixed, fp, movable=std, conn=conn,
                                  reuse_system=False)
        assert cached == rebuilt
