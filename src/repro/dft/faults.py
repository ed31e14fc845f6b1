"""Stuck-at fault universe with structural collapsing.

Faults live on pins: every instance pin and port pin carries SA0 and
SA1.  The *total* count is the uncollapsed universe (what a tool's
fault report prints, cf. Table III); simulation runs on a collapsed
set using the classic equivalence rules for single-input cells
(a BUF/INV input fault is equivalent to the corresponding output
fault), which shrinks the buffer-heavy designs meaningfully.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import DFTError
from repro.netlist.netlist import Netlist

SA0 = 0
SA1 = 1


@dataclass(frozen=True)
class Fault:
    """One stuck-at fault.

    ``site`` is a pin full-name (``inst/PIN`` or ``port:NAME``);
    ``stuck`` is SA0/SA1.  ``kind`` distinguishes where injection
    happens: "out" faults poison the whole net, "in" faults poison one
    gate input, "boundary" faults sit on macro inputs / output ports
    and are judged by net visibility rather than cone simulation.
    """

    site: str
    stuck: int
    kind: str

    def __post_init__(self) -> None:
        if self.stuck not in (SA0, SA1):
            raise DFTError(f"stuck value must be 0/1, got {self.stuck}")
        if self.kind not in ("in", "out", "boundary"):
            raise DFTError(f"unknown fault kind {self.kind}")


class FaultUniverse:
    """Total + collapsed fault sets for one netlist."""

    def __init__(self, total: int, collapsed: list[Fault]):
        self.total = total
        self.collapsed = collapsed

    def __len__(self) -> int:
        return len(self.collapsed)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.collapsed)


def build_fault_universe(netlist: Netlist) -> FaultUniverse:
    """Enumerate and collapse the stuck-at universe of *netlist*.

    Collapsing rules (equivalence only, no dominance):
    * single-input cells (INV/BUF/LVLSHIFT/CLKBUF): drop input faults,
      keep output faults (input SA-v is equivalent to an output fault);
    * clock and scan-enable pins carry no functional faults (they are
      exercised by the scan protocol itself).
    """
    total = 0
    collapsed: list[Fault] = []
    for inst in netlist.instances.values():
        single_input = (not inst.is_sequential and not inst.is_macro
                        and inst.cell.num_inputs == 1)
        for pin in inst.pins.values():
            if pin.name == inst.cell.clock_pin or pin.name == "SE":
                continue
            total += 2
            if pin.direction == "out":
                kind = "out"
            elif inst.is_macro or inst.is_sequential:
                # Macro data pins and scan-flop D/SI pins sit at
                # capture points: judged by net visibility.
                kind = "boundary"
            else:
                kind = "in"
            if kind == "in" and single_input:
                continue        # equivalent to the output fault
            for stuck in (SA0, SA1):
                collapsed.append(Fault(pin.full_name, stuck, kind))
    for port in netlist.ports.values():
        if port.pin.net is not None and port.pin.net.is_clock:
            continue
        total += 2
        kind = "boundary" if port.direction == "out" else "out"
        for stuck in (SA0, SA1):
            collapsed.append(Fault(port.pin.full_name, stuck, kind))
    return FaultUniverse(total=total, collapsed=collapsed)
