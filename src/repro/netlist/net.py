"""Pins, nets and top-level ports.

A :class:`Net` is the hyperedge of the paper's Section III-B: exactly
one driver pin (a cell output or an input port) and any number of sink
pins.  The GNN-MLS hypergraph conversion later folds each net onto its
driver node, which is why the single-driver invariant is enforced here
rather than discovered downstream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import NetlistError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.netlist.cell import Instance


def _lookup_named(netlist, table: str, name: str):
    """Pickle helper: resolve a netlist-owned object by name.

    ``table`` is the owning dict attribute (``"instances"`` /
    ``"nets"`` / ``"ports"``).  Module-level so pickle can reference
    it; the netlist argument arrives already rebuilt from its flat
    struct-of-arrays state, making the whole chain recursion-free.
    """
    return getattr(netlist, table)[name]


def _lookup_inst_pin(instance, name: str):
    """Pickle helper: a pin by name on its owning instance."""
    return instance.pins[name]


def _lookup_port_pin(port):
    """Pickle helper: the single pin of a port."""
    return port.pin


def _new_empty(cls):
    """Pickle helper: bare instance for by-value slot-state restore."""
    return cls.__new__(cls)


class Pin:
    """One connection point: belongs to an instance or a port.

    ``owner`` is the owning :class:`Instance`, or ``None`` for a port
    pin (the owning :class:`Port` is then set in ``port``).
    """

    __slots__ = ("name", "direction", "owner", "port", "net", "cap_ff",
                 "_full_name")

    def __init__(self, name: str, direction: str,
                 owner: Optional["Instance"] = None,
                 port: Optional["Port"] = None,
                 cap_ff: float = 0.0):
        if direction not in ("in", "out"):
            raise NetlistError(f"pin {name}: direction must be 'in'/'out'")
        if (owner is None) == (port is None):
            raise NetlistError(f"pin {name}: exactly one of owner/port required")
        self.name = name
        self.direction = direction
        self.owner = owner
        self.port = port
        self.net: Net | None = None
        self.cap_ff = cap_ff
        self._full_name: str | None = None

    @property
    def is_port_pin(self) -> bool:
        return self.port is not None

    @property
    def full_name(self) -> str:
        """Hierarchical name, ``inst/PIN`` or ``port:NAME``.

        Formatted on first use and kept, so every dict keyed by pin
        name (RC sink delays, the STA pin index, endpoint slacks)
        shares one string per pin.  Owner and port names never change
        once a pin exists.
        """
        name = self._full_name
        if name is None:
            name = self._full_name = (
                f"{self.owner.name}/{self.name}" if self.owner is not None
                else f"port:{self.port.name}")
        return name

    @property
    def drives(self) -> bool:
        """True when this pin can drive a net.

        Instance *output* pins and top-level *input* ports drive; the
        rest sink.
        """
        if self.is_port_pin:
            return self.direction == "in"
        return self.direction == "out"

    def __reduce__(self):
        # By reference through the owner whenever the owner is itself
        # netlist-attached (the normal case); detached fragments fall
        # back to by-value slot state.
        if self.owner is not None and self.owner._netlist is not None:
            return (_lookup_inst_pin, (self.owner, self.name))
        if self.port is not None and self.port._netlist is not None:
            return (_lookup_port_pin, (self.port,))
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        return (_new_empty, (Pin,), state)

    def __setstate__(self, state: dict) -> None:
        # A by-value pin pickled before the name slot existed lacks it.
        self._full_name = None
        for slot, value in state.items():
            setattr(self, slot, value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Pin({self.full_name})"


class Net:
    """A signal net: one driver, N sinks.

    Routing, timing and MLS state live *outside* the netlist (in
    :class:`repro.core.flow.Design`-level maps keyed by net name), so a
    netlist stays a pure structural object that can be re-placed and
    re-routed without mutation.
    """

    __slots__ = ("name", "driver", "sinks", "is_clock", "_netlist")

    def __init__(self, name: str, is_clock: bool = False):
        self.name = name
        self.driver: Pin | None = None
        self.sinks: list[Pin] = []
        self.is_clock = is_clock
        self._netlist = None            # set by Netlist.add_net

    def __reduce__(self):
        if self._netlist is not None:
            return (_lookup_named, (self._netlist, "nets", self.name))
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        return (_new_empty, (Net,), state)

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)

    def attach(self, pin: Pin) -> None:
        """Connect *pin*, enforcing the single-driver invariant."""
        if pin.net is not None:
            raise NetlistError(
                f"pin {pin.full_name} already on net {pin.net.name}")
        if pin.drives:
            if self.driver is not None:
                raise NetlistError(
                    f"net {self.name}: second driver {pin.full_name} "
                    f"(already driven by {self.driver.full_name})")
            self.driver = pin
        else:
            self.sinks.append(pin)
        pin.net = self
        if self._netlist is not None:
            self._netlist.edits += 1

    def detach(self, pin: Pin) -> None:
        """Disconnect *pin* (used by DFT net splitting)."""
        if pin.net is not self:
            raise NetlistError(f"pin {pin.full_name} is not on net {self.name}")
        if pin is self.driver:
            self.driver = None
        else:
            self.sinks.remove(pin)
        pin.net = None
        if self._netlist is not None:
            self._netlist.edits += 1

    def pins(self) -> list[Pin]:
        """Driver first (when present), then sinks."""
        out = [] if self.driver is None else [self.driver]
        out.extend(self.sinks)
        return out

    @property
    def degree(self) -> int:
        """Total pin count (the hyperedge size)."""
        return len(self.sinks) + (1 if self.driver is not None else 0)

    @property
    def fanout(self) -> int:
        return len(self.sinks)

    def sink_cap_ff(self) -> float:
        """Sum of sink pin capacitances (gate-load part of the net load)."""
        return sum(pin.cap_ff for pin in self.sinks)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Net({self.name}, fanout={self.fanout})"


class Port:
    """Top-level I/O of the design.

    Input ports behave as timing start points driving their net; output
    ports are endpoints with an external load capacitance.
    """

    __slots__ = ("name", "direction", "pin", "tier_hint", "false_path",
                 "_netlist")

    def __reduce__(self):
        if self._netlist is not None:
            return (_lookup_named, (self._netlist, "ports", self.name))
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        return (_new_empty, (Port,), state)

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)

    def __init__(self, name: str, direction: str, cap_ff: float = 2.0,
                 tier_hint: int = 0, false_path: bool = False):
        if direction not in ("in", "out"):
            raise NetlistError(f"port {name}: direction must be 'in'/'out'")
        self.name = name
        self.direction = direction
        # A port pin mirrors the port direction; external load applies
        # to output ports only.
        self.pin = Pin(name, direction, port=self,
                       cap_ff=cap_ff if direction == "out" else 0.0)
        self.tier_hint = tier_hint
        #: Static-in-function ports (test mode, scan enable) are
        #: excluded from timing propagation but still load their nets.
        self.false_path = false_path
        self._netlist = None            # set by Netlist.add_port

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Port({self.name}, {self.direction})"
