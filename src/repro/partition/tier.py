"""Tier assignment container and cut queries."""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist
from repro.netlist.soa import pack_names, unpack_names


def _pack_tiers(tiers: dict[str, int], reference: list[str]) -> dict:
    names = list(tiers)
    return {
        "tier": np.asarray(list(tiers.values()), dtype=np.int8),
        "names": None if names == reference else pack_names(names),
    }


def _unpack_tiers(state: dict, reference: list[str]) -> dict[str, int]:
    packed = state["names"]
    names = reference if packed is None else unpack_names(packed)
    return {name: int(tier) for name, tier in zip(names, state["tier"])}

#: Bottom die — compute fabric ("logic die" in the paper).
TIER_LOGIC = 0
#: Top die — SRAM banks and interface logic ("memory die").
TIER_MEMORY = 1


class TierAssignment:
    """Maps every instance and port of a netlist to tier 0 or 1."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._inst_tier: dict[str, int] = {}
        self._port_tier: dict[str, int] = {}

    def __getstate__(self) -> dict:
        # Flat arrays, eliding the name tables when assignment order
        # matches netlist order (every partitioner output does).
        return {
            "netlist": self.netlist,
            "inst": _pack_tiers(self._inst_tier, list(self.netlist.instances)),
            "port": _pack_tiers(self._port_tier, list(self.netlist.ports)),
        }

    def __setstate__(self, state: dict) -> None:
        self.netlist = state["netlist"]
        self._inst_tier = _unpack_tiers(state["inst"],
                                        list(self.netlist.instances))
        self._port_tier = _unpack_tiers(state["port"],
                                        list(self.netlist.ports))

    def set_instance(self, name: str, tier: int) -> None:
        if tier not in (TIER_LOGIC, TIER_MEMORY):
            raise PartitionError(f"tier must be 0 or 1, got {tier}")
        if name not in self.netlist.instances:
            raise PartitionError(f"unknown instance {name!r}")
        self._inst_tier[name] = tier

    def set_port(self, name: str, tier: int) -> None:
        if tier not in (TIER_LOGIC, TIER_MEMORY):
            raise PartitionError(f"tier must be 0 or 1, got {tier}")
        if name not in self.netlist.ports:
            raise PartitionError(f"unknown port {name!r}")
        self._port_tier[name] = tier

    def of_instance(self, name: str) -> int:
        try:
            return self._inst_tier[name]
        except KeyError:
            raise PartitionError(f"instance {name!r} unassigned") from None

    def of_port(self, name: str) -> int:
        try:
            return self._port_tier[name]
        except KeyError:
            raise PartitionError(f"port {name!r} unassigned") from None

    def of_pin(self, pin) -> int:
        """Tier of the instance/port owning *pin*."""
        if pin.owner is not None:
            return self.of_instance(pin.owner.name)
        return self.of_port(pin.port.name)

    def validate(self) -> None:
        """Every instance and port must be assigned."""
        missing = [n for n in self.netlist.instances if n not in self._inst_tier]
        if missing:
            raise PartitionError(
                f"{len(missing)} unassigned instances, e.g. {missing[:3]}")
        missing_p = [n for n in self.netlist.ports if n not in self._port_tier]
        if missing_p:
            raise PartitionError(f"unassigned ports: {missing_p[:5]}")

    def counts(self) -> tuple[int, int]:
        bottom = sum(1 for t in self._inst_tier.values() if t == TIER_LOGIC)
        return bottom, len(self._inst_tier) - bottom

    def net_tiers(self, net: Net) -> set[int]:
        """The set of tiers a net's pins touch (clock excluded pins too)."""
        return {self.of_pin(pin) for pin in net.pins()}

    def is_cross_tier(self, net: Net) -> bool:
        return len(self.net_tiers(net)) > 1


def cross_tier_nets(netlist: Netlist, tiers: TierAssignment) -> list[Net]:
    """All signal nets whose pins span both tiers — the 3D nets that
    consume F2F vias regardless of MLS."""
    return [net for net in netlist.signal_nets() if tiers.is_cross_tier(net)]
