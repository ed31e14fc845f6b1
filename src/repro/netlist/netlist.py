"""The :class:`Netlist` container.

Owns instances, nets and ports; provides validation, statistics, and
the structural traversals (combinational topological order, fan-in /
fan-out cones) that STA, DFT and the GNN feature extractor all build
on.  Also provides the *net-splitting* surgery DFT insertion needs.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.errors import NetlistError
from repro.netlist.cell import Instance
from repro.netlist.net import Net, Pin, Port
from repro.netlist.soa import NetlistSoA
from repro.tech.cells import CellType


class Netlist:
    """A flat gate-level netlist.

    Serialization note: pickling goes through the struct-of-arrays
    core (:class:`~repro.netlist.soa.NetlistSoA`) — flat id/offset
    arrays plus string tables instead of the recursive pin->net->pin
    object graph.  Encode and decode are iterative, so pickling is
    independent of ``sys.getrecursionlimit()`` at any design scale,
    and the payload is several times smaller than the object graph.
    """

    def __init__(self, name: str):
        self.name = name
        self.instances: dict[str, Instance] = {}
        self.nets: dict[str, Net] = {}
        self.ports: dict[str, Port] = {}
        self._uid = 0
        #: Structural edit counter: every instance/net/port added, pin
        #: attached or detached and cell swapped bumps it.  Derived
        #: state keyed on the netlist's structure (a routing result's
        #: replay basis, the route topology) compares it.  It is not
        #: part of the pickled state: an unpickled netlist starts at 0.
        self.edits = 0

    # -- construction --------------------------------------------------------

    def add_instance(self, name: str, cell: CellType) -> Instance:
        if name in self.instances:
            raise NetlistError(f"duplicate instance name {name!r}")
        inst = Instance(name, cell)
        inst._netlist = self
        self.instances[name] = inst
        self.edits += 1
        return inst

    def add_net(self, name: str, is_clock: bool = False) -> Net:
        if name in self.nets:
            raise NetlistError(f"duplicate net name {name!r}")
        net = Net(name, is_clock=is_clock)
        net._netlist = self
        self.nets[name] = net
        self.edits += 1
        return net

    def add_port(self, name: str, direction: str, cap_ff: float = 2.0,
                 tier_hint: int = 0, false_path: bool = False) -> Port:
        if name in self.ports:
            raise NetlistError(f"duplicate port name {name!r}")
        port = Port(name, direction, cap_ff=cap_ff, tier_hint=tier_hint,
                    false_path=false_path)
        port._netlist = self
        self.ports[name] = port
        self.edits += 1
        return port

    # -- serialization ---------------------------------------------------------

    def to_flat(self) -> NetlistSoA:
        """Snapshot into the struct-of-arrays representation."""
        return NetlistSoA.from_netlist(self)

    @classmethod
    def from_flat(cls, flat: NetlistSoA) -> "Netlist":
        """Rebuild a netlist from a :class:`NetlistSoA` snapshot."""
        netlist = cls.__new__(cls)
        flat.populate(netlist)
        return netlist

    def __getstate__(self) -> dict:
        return {"flat": self.to_flat()}

    def __setstate__(self, state: dict) -> None:
        state["flat"].populate(self)

    def connect(self, net: Net | str, pin: Pin) -> None:
        """Attach *pin* to *net* (accepting a net name for convenience)."""
        if isinstance(net, str):
            net = self.net(net)
        net.attach(pin)

    def fresh_name(self, prefix: str) -> str:
        """Generate a name not colliding with any instance or net."""
        while True:
            self._uid += 1
            candidate = f"{prefix}_{self._uid}"
            if candidate not in self.instances and candidate not in self.nets:
                return candidate

    # -- lookup ---------------------------------------------------------------

    def instance(self, name: str) -> Instance:
        try:
            return self.instances[name]
        except KeyError:
            raise NetlistError(f"no instance {name!r} in {self.name}") from None

    def net(self, name: str) -> Net:
        try:
            return self.nets[name]
        except KeyError:
            raise NetlistError(f"no net {name!r} in {self.name}") from None

    def port(self, name: str) -> Port:
        try:
            return self.ports[name]
        except KeyError:
            raise NetlistError(f"no port {name!r} in {self.name}") from None

    # -- surgery (DFT insertion) ----------------------------------------------

    def split_net_at_sinks(self, net: Net, sinks: Iterable[Pin],
                           new_net_name: str | None = None) -> Net:
        """Move *sinks* from *net* onto a fresh, undriven net.

        The caller then wires a repair cell (MUX / scan-FF) between the
        two nets.  Returns the new net.
        """
        sinks = list(sinks)
        for pin in sinks:
            if pin.net is not net:
                raise NetlistError(
                    f"cannot split: {pin.full_name} is not a sink of "
                    f"{net.name}")
            if pin is net.driver:
                raise NetlistError("cannot move the driver in a sink split")
        name = new_net_name or self.fresh_name(f"{net.name}_split")
        new_net = self.add_net(name)
        for pin in sinks:
            net.detach(pin)
            new_net.attach(pin)
        return new_net

    def swap_cell(self, inst: Instance, new_cell: CellType) -> None:
        """Replace *inst*'s cell type in place (e.g. DFF -> SDFF).

        Pins present in both cells keep their connections (and update
        their capacitance to the new spec); pins only in the old cell
        must be unconnected; new pins are created unconnected.
        """
        old_pins = inst.pins
        new_specs = {spec.name: spec for spec in new_cell.pins()}
        for name, pin in old_pins.items():
            if name not in new_specs and pin.net is not None:
                raise NetlistError(
                    f"cannot swap {inst.name}: connected pin {name} has no "
                    f"counterpart in {new_cell.name}")
        inst.cell = new_cell
        self.edits += 1
        rebuilt: dict[str, Pin] = {}
        for name, spec in new_specs.items():
            old = old_pins.get(name)
            if old is not None and old.direction == spec.direction:
                old.cap_ff = spec.cap_ff
                rebuilt[name] = old
            else:
                if old is not None and old.net is not None:
                    raise NetlistError(
                        f"cannot swap {inst.name}: pin {name} changes "
                        "direction while connected")
                rebuilt[name] = Pin(name, spec.direction, owner=inst,
                                    cap_ff=spec.cap_ff)
        inst.pins = rebuilt

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise :class:`NetlistError` on the
        first violation.

        Invariants: every net has a driver and at least one sink; every
        instance input pin and port pin is connected; clock pins of
        sequential cells sit on clock nets.
        """
        for net in self.nets.values():
            if net.driver is None:
                raise NetlistError(f"net {net.name} has no driver")
            if not net.sinks:
                raise NetlistError(f"net {net.name} has no sinks")
        for inst in self.instances.values():
            for pin in inst.input_pins():
                if pin.net is None:
                    raise NetlistError(
                        f"unconnected input {pin.full_name}")
            clock = inst.clock_pin
            if clock is not None:
                if clock.net is None:
                    raise NetlistError(
                        f"unconnected clock pin {clock.full_name}")
                if not clock.net.is_clock:
                    raise NetlistError(
                        f"clock pin {clock.full_name} on non-clock net "
                        f"{clock.net.name}")
            if inst.output_pin.net is None:
                raise NetlistError(
                    f"dangling output {inst.output_pin.full_name}")
        for port in self.ports.values():
            if port.pin.net is None:
                raise NetlistError(f"unconnected port {port.name}")

    # -- traversal ---------------------------------------------------------------

    def signal_nets(self) -> list[Net]:
        """All non-clock nets, in insertion order."""
        return [n for n in self.nets.values() if not n.is_clock]

    def sequential_instances(self) -> list[Instance]:
        return [i for i in self.instances.values() if i.is_sequential]

    def topological_order(self) -> list[Instance]:
        """Combinational instances in signal-flow order.

        Sequential outputs and input ports are sources; a combinational
        instance is emitted once all its combinationally-driven inputs
        are resolved.  Raises on combinational loops.
        """
        indegree: dict[str, int] = {}
        ready: deque[Instance] = deque()
        for inst in self.instances.values():
            if inst.is_sequential:
                continue
            count = 0
            for pin in inst.input_pins():
                if pin.net is None or pin.net.driver is None:
                    continue
                drv = pin.net.driver
                if drv.owner is not None and not drv.owner.is_sequential:
                    count += 1
            indegree[inst.name] = count
            if count == 0:
                ready.append(inst)
        order: list[Instance] = []
        while ready:
            inst = ready.popleft()
            order.append(inst)
            out_net = inst.output_pin.net
            if out_net is None:
                continue
            for sink in out_net.sinks:
                owner = sink.owner
                if owner is None or owner.is_sequential:
                    continue
                if sink is owner.clock_pin:
                    continue
                indegree[owner.name] -= 1
                if indegree[owner.name] == 0:
                    ready.append(owner)
        expected = sum(1 for i in self.instances.values() if not i.is_sequential)
        if len(order) != expected:
            raise NetlistError(
                f"combinational loop: ordered {len(order)} of {expected} "
                "combinational instances")
        return order

    # -- statistics ---------------------------------------------------------------

    def stats(self) -> dict[str, int | float]:
        """Quick design summary used by reports and tests."""
        num_seq = len(self.sequential_instances())
        num_macro = sum(1 for i in self.instances.values() if i.is_macro)
        fanouts = [n.fanout for n in self.signal_nets()]
        return {
            "name": self.name,
            "instances": len(self.instances),
            "sequential": num_seq,
            "macros": num_macro,
            "combinational": len(self.instances) - num_seq,
            "nets": len(self.nets),
            "signal_nets": len(self.signal_nets()),
            "ports": len(self.ports),
            "max_fanout": max(fanouts, default=0),
            "total_pins": sum(n.degree for n in self.nets.values()),
        }

    def total_cell_area(self) -> float:
        """Sum of instance footprints in um^2."""
        return sum(inst.cell.area_um2 for inst in self.instances.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Netlist({self.name}: {len(self.instances)} insts, "
                f"{len(self.nets)} nets)")
