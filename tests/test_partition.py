"""Tier assignment and memory-on-logic partitioning tests."""

import pytest

from repro.errors import PartitionError
from repro.netlist.generators import MaeriConfig, generate_maeri
from repro.partition import (TIER_LOGIC, TIER_MEMORY, TierAssignment,
                             cross_tier_nets, partition_memory_on_logic)


@pytest.fixture(scope="module")
def maeri(hetero_tech):
    return generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                          hetero_tech.libraries, 5)


class TestMemoryOnLogic:
    def test_macros_on_memory_tier(self, maeri):
        tiers = partition_memory_on_logic(maeri)
        for name, inst in maeri.instances.items():
            if inst.is_macro:
                assert tiers.of_instance(name) == TIER_MEMORY

    def test_logic_region_on_logic_tier(self, maeri):
        tiers = partition_memory_on_logic(maeri)
        for name, inst in maeri.instances.items():
            if inst.attrs.get("region") == "logic":
                assert tiers.of_instance(name) == TIER_LOGIC

    def test_cross_tier_nets_exist(self, maeri):
        tiers = partition_memory_on_logic(maeri)
        crossing = cross_tier_nets(maeri, tiers)
        assert crossing
        for net in crossing:
            assert tiers.is_cross_tier(net)

    def test_counts_sum(self, maeri):
        tiers = partition_memory_on_logic(maeri)
        bottom, top = tiers.counts()
        assert bottom + top == len(maeri.instances)
        assert bottom > top        # logic dominates MAERI


class TestTierAssignment:
    def test_unassigned_raises(self, maeri):
        tiers = TierAssignment(maeri)
        with pytest.raises(PartitionError, match="unassigned"):
            tiers.of_instance(next(iter(maeri.instances)))

    def test_bad_tier_value(self, maeri):
        tiers = TierAssignment(maeri)
        with pytest.raises(PartitionError):
            tiers.set_instance(next(iter(maeri.instances)), 2)

    def test_unknown_instance(self, maeri):
        tiers = TierAssignment(maeri)
        with pytest.raises(PartitionError):
            tiers.set_instance("ghost", 0)

    def test_validate_catches_missing(self, maeri):
        tiers = TierAssignment(maeri)
        with pytest.raises(PartitionError):
            tiers.validate()
