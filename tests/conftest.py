"""Shared fixtures.

Expensive artifacts (generated designs, placed/routed small fabrics)
are session-scoped; tests that mutate a design must build their own
(use the factory fixtures).
"""

from __future__ import annotations

import pytest

from repro.design import Design, TechSetup
from repro.mls import route_with_mls
from repro.netlist.builder import NetlistBuilder
from repro.netlist.generators import MaeriConfig, generate_maeri
from repro.opt import insert_buffers
from repro.partition import partition_memory_on_logic
from repro.place import place_design

TEST_SEED = 1234


@pytest.fixture(scope="session")
def hetero_tech() -> TechSetup:
    return TechSetup.build("16nm", "28nm", 6)


@pytest.fixture(scope="session")
def homo_tech() -> TechSetup:
    return TechSetup.build("28nm", "28nm", 6)


def build_small_design(tech: TechSetup, seed: int = TEST_SEED,
                       pe: int = 16, freq: float = 1500.0,
                       routed: bool = True, buffered: bool = True) -> Design:
    """A small MAERI fabric pushed through place (+buffer, +route)."""
    netlist = generate_maeri(MaeriConfig(pe_count=pe, bandwidth=8),
                             tech.libraries, seed)
    design = Design(netlist, tech, freq)
    design.tiers = partition_memory_on_logic(netlist)
    design.placement, design.floorplan = place_design(
        netlist, design.tiers)
    if buffered:
        insert_buffers(design)
    if routed:
        route_with_mls(design, set())
    return design


@pytest.fixture(scope="session")
def routed_small_design(hetero_tech) -> Design:
    """Read-only routed 16PE design (do NOT mutate in tests)."""
    return build_small_design(hetero_tech)


@pytest.fixture()
def fresh_small_design(hetero_tech) -> Design:
    """A mutable routed 16PE design, rebuilt per test."""
    return build_small_design(hetero_tech)


@pytest.fixture()
def tiny_builder(hetero_tech) -> NetlistBuilder:
    """Builder over logic/memory libraries for hand-made netlists."""
    return NetlistBuilder("tiny", hetero_tech.libraries)


def make_chain_netlist(tech: TechSetup, stages: int = 3):
    """reg -> INV chain -> reg netlist with ports, for STA hand-checks."""
    builder = NetlistBuilder("chain", tech.libraries)
    clock = builder.clock_net("clk")
    clk_port = builder.netlist.add_port("clk_pad", "in")
    clock.attach(clk_port.pin)
    d_in = builder.input("din")
    q = builder.flop(d_in, clock, hint="launch")
    for _ in range(stages):
        q = builder.gate("INV", q)
    q2 = builder.flop(q, clock, hint="capture")
    builder.output("dout", q2)
    return builder.done()
