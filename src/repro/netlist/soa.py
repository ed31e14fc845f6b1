"""Struct-of-arrays netlist core.

:class:`NetlistSoA` is the flat, array-backed representation of a
:class:`~repro.netlist.netlist.Netlist`: NumPy id/offset arrays for
cells, ports and CSR-style net->pin incidence, plus Python string
tables.  It is the same struct-of-arrays move that made
``place.system`` and the CSR STA kernel fast, applied to the netlist
itself, and serves two roles:

1. **Flat serialization.**  ``Netlist.__getstate__`` encodes through
   this class, replacing the old recursive object-graph pickle (whose
   pin->net->pin chains blew the C stack on MAERI-128 — a hard
   segfault once the recursion limit was raised past what the stack
   could back).  Encode and decode are *iterative* loops over arrays;
   no step recurses, so round-tripping is independent of
   ``sys.getrecursionlimit()`` and the pickled payload shrinks to
   id arrays + string tables.

2. **Array views for analysis.**  The incidence arrays are the natural
   substrate for hypergraph feature extraction and the learned
   congestion/ordering predictors on the roadmap (DE-HNN encodes
   directed hyperedges exactly this way): ``fanouts()``,
   ``degrees()``, ``cell_areas()`` and the raw CSR members give
   whole-array design queries without touching a Python object
   per pin.

Pin references are encoded as ``(owner, slot)`` pairs: ``owner >= 0``
is an instance index and ``slot`` the pin's position in the cell's
declared pin order (``CellType.pins()`` order, which ``Instance.pins``
preserves by construction — including through ``swap_cell``);
``owner < 0`` encodes port index ``-owner - 1``.  A net's sinks are
stored in list order, so iteration order — and with it every
downstream tie-break (STA ``worst_pred``, router scheduling, fault
ordering) — survives the round trip bit-identically.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import NetlistError

#: ``net_driver_owner`` sentinel for an undriven net.
_NO_DRIVER = np.iinfo(np.int32).min


def pack_names(names: list[str]) -> tuple:
    """Compress a name table into one deflated blob.

    Netlist name tables are large (two strings per cell) and highly
    repetitive (hierarchical prefixes), so joining and deflating them
    beats pickling tens of thousands of individual str objects by a
    wide margin.  Names containing the separator fall back to a plain
    list — correctness never depends on the name alphabet.
    """
    if any("\n" in name for name in names):
        return ("list", names)
    blob = "\n".join(names).encode()
    return ("z", len(names), zlib.compress(blob, 6))


def unpack_names(packed: tuple) -> list[str]:
    """Inverse of :func:`pack_names`."""
    if packed[0] == "list":
        return packed[1]
    _, count, blob = packed
    if count == 0:
        return []
    return zlib.decompress(blob).decode().split("\n")


@dataclass
class NetlistSoA:
    """Flat arrays + string/cell tables for one netlist snapshot."""

    name: str
    uid: int
    # -- instances ---------------------------------------------------------
    cell_types: list                    # unique CellType objects, first-use order
    inst_names: list[str]
    inst_cell: np.ndarray               # int32[n_inst] -> cell_types index
    attr_dicts: list[dict]              # unique attr dicts (index 0 == {})
    inst_attr: np.ndarray               # int32[n_inst] -> attr_dicts index
    # -- ports -------------------------------------------------------------
    port_names: list[str]
    port_is_out: np.ndarray             # bool[n_port]
    port_cap_ff: np.ndarray             # float64[n_port] (pin cap)
    port_tier_hint: np.ndarray          # int32[n_port]
    port_false_path: np.ndarray         # bool[n_port]
    # -- nets + CSR pin incidence -------------------------------------------
    net_names: list[str]
    net_is_clock: np.ndarray            # bool[n_net]
    net_driver_owner: np.ndarray        # int32[n_net] (_NO_DRIVER = none)
    net_driver_slot: np.ndarray         # int32[n_net]
    sink_offsets: np.ndarray            # int64[n_net + 1]
    sink_owner: np.ndarray              # int32[total_sinks]
    sink_slot: np.ndarray               # int32[total_sinks]

    # -- encode --------------------------------------------------------------

    @classmethod
    def from_netlist(cls, netlist) -> "NetlistSoA":
        """Encode *netlist* into flat arrays (iterative, O(pins))."""
        cell_types: list = []
        cell_index: dict[int, int] = {}
        attr_dicts: list[dict] = [{}]
        attr_index: dict[tuple, int] = {(): 0}
        inst_names: list[str] = []
        inst_cell = np.empty(len(netlist.instances), dtype=np.int32)
        inst_attr = np.zeros(len(netlist.instances), dtype=np.int32)
        # pin id -> (owner, slot) reference map
        pin_ref: dict[int, tuple[int, int]] = {}
        for i, inst in enumerate(netlist.instances.values()):
            inst_names.append(inst.name)
            ci = cell_index.get(id(inst.cell))
            if ci is None:
                ci = cell_index[id(inst.cell)] = len(cell_types)
                cell_types.append(inst.cell)
            inst_cell[i] = ci
            if inst.attrs:
                try:
                    key = tuple(sorted(inst.attrs.items()))
                    ai = attr_index.get(key)
                    if ai is None:
                        ai = attr_index[key] = len(attr_dicts)
                        attr_dicts.append(dict(inst.attrs))
                except TypeError:       # unhashable attr values: no dedup
                    ai = len(attr_dicts)
                    attr_dicts.append(dict(inst.attrs))
                inst_attr[i] = ai
            for slot, pin in enumerate(inst.pins.values()):
                pin_ref[id(pin)] = (i, slot)

        port_names: list[str] = []
        n_ports = len(netlist.ports)
        port_is_out = np.empty(n_ports, dtype=bool)
        port_cap_ff = np.empty(n_ports, dtype=np.float64)
        port_tier_hint = np.empty(n_ports, dtype=np.int32)
        port_false_path = np.empty(n_ports, dtype=bool)
        for p, port in enumerate(netlist.ports.values()):
            port_names.append(port.name)
            port_is_out[p] = port.direction == "out"
            port_cap_ff[p] = port.pin.cap_ff
            port_tier_hint[p] = port.tier_hint
            port_false_path[p] = port.false_path
            pin_ref[id(port.pin)] = (-(p + 1), -1)

        n_nets = len(netlist.nets)
        net_names: list[str] = []
        net_is_clock = np.empty(n_nets, dtype=bool)
        net_driver_owner = np.full(n_nets, _NO_DRIVER, dtype=np.int32)
        net_driver_slot = np.full(n_nets, -1, dtype=np.int32)
        sink_offsets = np.zeros(n_nets + 1, dtype=np.int64)
        sink_owner_list: list[int] = []
        sink_slot_list: list[int] = []

        def ref_of(pin) -> tuple[int, int]:
            try:
                return pin_ref[id(pin)]
            except KeyError:
                raise NetlistError(
                    f"pin {pin.full_name} on net {pin.net.name} does not "
                    f"belong to netlist {netlist.name!r}") from None

        for j, net in enumerate(netlist.nets.values()):
            net_names.append(net.name)
            net_is_clock[j] = net.is_clock
            if net.driver is not None:
                net_driver_owner[j], net_driver_slot[j] = ref_of(net.driver)
            for pin in net.sinks:
                owner, slot = ref_of(pin)
                sink_owner_list.append(owner)
                sink_slot_list.append(slot)
            sink_offsets[j + 1] = len(sink_owner_list)

        return cls(
            name=netlist.name, uid=netlist._uid,
            cell_types=cell_types, inst_names=inst_names,
            inst_cell=inst_cell, attr_dicts=attr_dicts, inst_attr=inst_attr,
            port_names=port_names, port_is_out=port_is_out,
            port_cap_ff=port_cap_ff, port_tier_hint=port_tier_hint,
            port_false_path=port_false_path,
            net_names=net_names, net_is_clock=net_is_clock,
            net_driver_owner=net_driver_owner,
            net_driver_slot=net_driver_slot,
            sink_offsets=sink_offsets,
            sink_owner=np.asarray(sink_owner_list, dtype=np.int32),
            sink_slot=np.asarray(sink_slot_list, dtype=np.int32),
        )

    # -- decode --------------------------------------------------------------

    def populate(self, netlist) -> None:
        """Fill a bare :class:`Netlist` instance from the arrays.

        Reconstruction is exact: dict insertion orders, sink list
        orders, pin orders, attrs, the fresh-name counter and every
        capacitance come back bit-identical.  Connections are restored
        by direct assignment (the invariants were checked when the
        arrays were built), iteratively — no recursion anywhere.
        """
        from repro.netlist.cell import Instance
        from repro.netlist.net import Net, Port

        netlist.name = self.name
        netlist._uid = self.uid
        netlist.edits = 0
        netlist.instances = {}
        netlist.nets = {}
        netlist.ports = {}

        pin_lists: list[list] = []
        for i, name in enumerate(self.inst_names):
            inst = Instance(name, self.cell_types[self.inst_cell[i]])
            attrs = self.attr_dicts[self.inst_attr[i]]
            if attrs:
                inst.attrs.update(attrs)
            inst._netlist = netlist
            netlist.instances[name] = inst
            pin_lists.append(list(inst.pins.values()))

        ports: list = []
        for p, name in enumerate(self.port_names):
            port = Port(name, "out" if self.port_is_out[p] else "in",
                        cap_ff=float(self.port_cap_ff[p]),
                        tier_hint=int(self.port_tier_hint[p]),
                        false_path=bool(self.port_false_path[p]))
            port._netlist = netlist
            netlist.ports[name] = port
            ports.append(port)

        offsets = self.sink_offsets
        sink_owner = self.sink_owner
        sink_slot = self.sink_slot
        for j, name in enumerate(self.net_names):
            net = Net(name, is_clock=bool(self.net_is_clock[j]))
            net._netlist = netlist
            owner = self.net_driver_owner[j]
            if owner != _NO_DRIVER:
                pin = pin_lists[owner][self.net_driver_slot[j]] \
                    if owner >= 0 else ports[-owner - 1].pin
                net.driver = pin
                pin.net = net
            sinks = net.sinks
            for k in range(offsets[j], offsets[j + 1]):
                owner = sink_owner[k]
                pin = pin_lists[owner][sink_slot[k]] \
                    if owner >= 0 else ports[-owner - 1].pin
                sinks.append(pin)
                pin.net = net
            netlist.nets[name] = net

    # -- array views -----------------------------------------------------------

    @property
    def num_instances(self) -> int:
        return len(self.inst_names)

    @property
    def num_nets(self) -> int:
        return len(self.net_names)

    @property
    def num_pins(self) -> int:
        """Connected pins (driver + sink attachments)."""
        return int(len(self.sink_owner)
                   + np.count_nonzero(self.net_driver_owner != _NO_DRIVER))

    def fanouts(self) -> np.ndarray:
        """Sink count per net, in net order (one CSR diff)."""
        return np.diff(self.sink_offsets)

    def degrees(self) -> np.ndarray:
        """Total pin count per net (hyperedge sizes)."""
        return self.fanouts() \
            + (self.net_driver_owner != _NO_DRIVER).astype(np.int64)

    def cell_areas(self) -> np.ndarray:
        """Per-instance footprint in um^2, in instance order."""
        table = np.asarray([cell.area_um2 for cell in self.cell_types],
                           dtype=np.float64)
        return table[self.inst_cell]

    def is_sequential(self) -> np.ndarray:
        """Per-instance sequential mask, in instance order."""
        table = np.asarray([cell.is_sequential for cell in self.cell_types],
                           dtype=bool)
        return table[self.inst_cell]

    def incidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Directed-hypergraph incidence: ``(offsets, owners, is_driver)``.

        Per net, the driver reference (when present) followed by the
        sinks in order — the DE-HNN-style encoding the GNN feature
        extractors consume.  ``owners`` uses the instance/port code of
        this class (``>= 0`` instance index, ``< 0`` port).
        """
        fanouts = self.fanouts()
        has_driver = self.net_driver_owner != _NO_DRIVER
        sizes = fanouts + has_driver.astype(np.int64)
        offsets = np.zeros(self.num_nets + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        owners = np.empty(int(offsets[-1]), dtype=np.int32)
        is_driver = np.zeros(int(offsets[-1]), dtype=bool)
        pos = offsets[:-1].copy()
        driver_rows = np.flatnonzero(has_driver)
        owners[pos[driver_rows]] = self.net_driver_owner[driver_rows]
        is_driver[pos[driver_rows]] = True
        pos[driver_rows] += 1
        for j in range(self.num_nets):
            lo, hi = self.sink_offsets[j], self.sink_offsets[j + 1]
            owners[pos[j]:pos[j] + (hi - lo)] = self.sink_owner[lo:hi]
        return offsets, owners, is_driver

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for field_name in ("inst_names", "net_names", "port_names"):
            state[field_name] = pack_names(state[field_name])
        return state

    def __setstate__(self, state: dict) -> None:
        for field_name in ("inst_names", "net_names", "port_names"):
            state[field_name] = unpack_names(state[field_name])
        self.__dict__.update(state)

    def nbytes(self) -> int:
        """Rough array payload size (excludes string tables)."""
        return sum(arr.nbytes for arr in (
            self.inst_cell, self.inst_attr, self.port_is_out,
            self.port_cap_ff, self.port_tier_hint, self.port_false_path,
            self.net_is_clock, self.net_driver_owner, self.net_driver_slot,
            self.sink_offsets, self.sink_owner, self.sink_slot))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"NetlistSoA({self.name}: {self.num_instances} insts, "
                f"{self.num_nets} nets, {self.num_pins} pins)")
