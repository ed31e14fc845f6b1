"""Placement result container."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PlacementError
from repro.netlist.net import Pin
from repro.netlist.netlist import Netlist
from repro.netlist.soa import pack_names, unpack_names
from repro.partition.tier import TierAssignment


def _pack_locations(loc: dict, reference: list[str]) -> dict:
    """Flatten a name -> Location dict into arrays.

    When the dict's key order matches *reference* (the owning
    netlist's iteration order — the case for every placer output) the
    name table is elided entirely and only the coordinate arrays ship.
    """
    names = list(loc)
    state = {
        "x": np.asarray([l.x for l in loc.values()], dtype=np.float64),
        "y": np.asarray([l.y for l in loc.values()], dtype=np.float64),
        "tier": np.asarray([l.tier for l in loc.values()], dtype=np.int8),
    }
    state["names"] = None if names == reference else pack_names(names)
    return state


def _unpack_locations(state: dict, reference: list[str]) -> dict:
    packed = state["names"]
    names = reference if packed is None else unpack_names(packed)
    return {
        name: Location(float(x), float(y), int(tier))
        for name, x, y, tier in zip(names, state["x"], state["y"],
                                    state["tier"])
    }


@dataclass(frozen=True)
class Location:
    """A placed object: center x/y in um plus tier.

    Slotted by hand with its own pickle reduction: pickle's default
    restore sets slots one by one, which a frozen class refuses, and
    ``dataclass(slots=True)`` makes a frozen class raise ``TypeError``
    instead of ``FrozenInstanceError`` on an unknown attribute.
    """

    __slots__ = ("x", "y", "tier")

    x: float
    y: float
    tier: int

    def __reduce__(self):
        return (Location, (self.x, self.y, self.tier))


class Placement:
    """Locations of every instance and port of a design.

    Ports are placed on the die boundary of their tier.  The object is
    the single source of physical truth for routing, RC extraction and
    the GNN feature extractor.
    """

    def __init__(self, netlist: Netlist, tiers: TierAssignment):
        self.netlist = netlist
        self.tiers = tiers
        self._loc: dict[str, Location] = {}
        self._port_loc: dict[str, Location] = {}
        self._init_derived()

    def _init_derived(self) -> None:
        #: Location edit counter, bumped by every ``set_*`` call; like
        #: :attr:`Netlist.edits` it keys derived routing state and is
        #: not pickled.
        self.edits = 0
        #: The :class:`~repro.route.steiner.RouteTopology` routers of
        #: this placement share (see :meth:`GlobalRouter.topology
        #: <repro.route.router.GlobalRouter.topology>`).  Derived data,
        #: never pickled.
        self.route_topology = None

    def __getstate__(self) -> dict:
        # Locations flatten to coordinate arrays (plus a name table
        # only when key order diverges from the netlist's) — the same
        # flat-serialization move as the netlist core, keeping
        # prepare-cache entries and snapshot fan-out payloads small.
        return {
            "netlist": self.netlist,
            "tiers": self.tiers,
            "loc": _pack_locations(self._loc, list(self.netlist.instances)),
            "port_loc": _pack_locations(self._port_loc,
                                        list(self.netlist.ports)),
        }

    def __setstate__(self, state: dict) -> None:
        self.netlist = state["netlist"]
        self.tiers = state["tiers"]
        self._loc = _unpack_locations(state["loc"],
                                      list(self.netlist.instances))
        self._port_loc = _unpack_locations(state["port_loc"],
                                           list(self.netlist.ports))
        self._init_derived()

    def set_instance(self, name: str, x: float, y: float) -> None:
        self._loc[name] = Location(x, y, self.tiers.of_instance(name))
        self.edits += 1

    def set_instances(self,
                      positions: dict[str, tuple[float, float]]) -> None:
        """Batch :meth:`set_instance` over a name -> (x, y) dict."""
        of_tier = self.tiers.of_instance
        self._loc.update(
            (name, Location(x, y, of_tier(name)))
            for name, (x, y) in positions.items())
        self.edits += 1

    def set_port(self, name: str, x: float, y: float) -> None:
        self._port_loc[name] = Location(x, y, self.tiers.of_port(name))
        self.edits += 1

    def of_instance(self, name: str) -> Location:
        try:
            return self._loc[name]
        except KeyError:
            raise PlacementError(f"instance {name!r} not placed") from None

    def of_port(self, name: str) -> Location:
        try:
            return self._port_loc[name]
        except KeyError:
            raise PlacementError(f"port {name!r} not placed") from None

    def of_pin(self, pin: Pin) -> Location:
        """Pin location — the owning instance/port center (pin-level
        offsets are below gcell resolution at this abstraction)."""
        if pin.owner is not None:
            return self.of_instance(pin.owner.name)
        return self.of_port(pin.port.name)

    def validate(self) -> None:
        missing = [n for n in self.netlist.instances if n not in self._loc]
        if missing:
            raise PlacementError(
                f"{len(missing)} unplaced instances, e.g. {missing[:3]}")
        missing_p = [n for n in self.netlist.ports if n not in self._port_loc]
        if missing_p:
            raise PlacementError(f"unplaced ports: {missing_p[:5]}")

    def hpwl(self) -> float:
        """Total half-perimeter wirelength over signal nets, in um."""
        total = 0.0
        for net in self.netlist.signal_nets():
            xs, ys = [], []
            for pin in net.pins():
                loc = self.of_pin(pin)
                xs.append(loc.x)
                ys.append(loc.y)
            if xs:
                total += (max(xs) - min(xs)) + (max(ys) - min(ys))
        return total

    def net_bbox(self, net) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) over a net's pins."""
        xs, ys = [], []
        for pin in net.pins():
            loc = self.of_pin(pin)
            xs.append(loc.x)
            ys.append(loc.y)
        if not xs:
            raise PlacementError(f"net {net.name} has no pins to bound")
        return min(xs), min(ys), max(xs), max(ys)
