"""Tier partitioning for two-tier F2F 3D ICs.

The paper's designs follow the Macro-3D memory-on-logic arrangement:
SRAM macros and their interface logic on the top (memory) die, the
compute fabric on the bottom (logic) die.  :mod:`memory_on_logic`
implements that policy.
"""

from repro.partition.tier import (
    TIER_LOGIC,
    TIER_MEMORY,
    TierAssignment,
    cross_tier_nets,
)
from repro.partition.memory_on_logic import partition_memory_on_logic

__all__ = [
    "TIER_LOGIC",
    "TIER_MEMORY",
    "TierAssignment",
    "cross_tier_nets",
    "partition_memory_on_logic",
]
