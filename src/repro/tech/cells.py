"""Standard-cell types with an NLDM-lite delay model and logic functions.

Each :class:`CellType` carries:

* electrical data — intrinsic delay, output drive resistance, per-input
  pin capacitance, leakage, per-toggle internal energy, area;
* a *logic function* operating on ``numpy.uint64`` words, so the DFT
  fault simulator can evaluate 64 test patterns per word in parallel;
* structural flags (sequential / macro / level-shifter / scannable).

The delay model is the classic linear approximation

    delay = intrinsic + drive_resistance * load_capacitance

which is what matters for the MLS experiments: MLS changes the *wire*
part of the load and adds F2F via RC, and the STA engine composes both.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import TechError

#: Bit-parallel logic function: receives one uint64 ndarray per input
#: pin (in declared order) and returns the output word array.
LogicFn = Callable[..., np.ndarray]

_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def _inv(a):
    return a ^ _ALL_ONES


def _buf(a):
    return a


def _nand2(a, b):
    return (a & b) ^ _ALL_ONES


def _nor2(a, b):
    return (a | b) ^ _ALL_ONES


def _and2(a, b):
    return a & b


def _or2(a, b):
    return a | b


def _xor2(a, b):
    return a ^ b


def _xnor2(a, b):
    return (a ^ b) ^ _ALL_ONES


def _aoi21(a, b, c):
    return ((a & b) | c) ^ _ALL_ONES


def _oai21(a, b, c):
    return ((a | b) & c) ^ _ALL_ONES


def _mux2(a, b, s):
    """Output = a when s=0, b when s=1."""
    return (a & (s ^ _ALL_ONES)) | (b & s)


def _and3(a, b, c):
    return a & b & c


def _or3(a, b, c):
    return a | b | c


def _maj3(a, b, c):
    """Majority — the carry function of a full adder."""
    return (a & b) | (a & c) | (b & c)


def _xor3(a, b, c):
    """Three-input parity — the sum function of a full adder."""
    return a ^ b ^ c


@dataclass(frozen=True)
class CellPinSpec:
    """Declared pin of a cell type.

    ``direction`` is ``"in"`` or ``"out"``; ``cap_ff`` is the pin's
    input capacitance (meaningful for inputs; outputs use the cell's
    drive resistance instead).
    """

    name: str
    direction: str
    cap_ff: float = 0.0

    def __post_init__(self) -> None:
        if self.direction not in ("in", "out"):
            raise TechError(f"pin {self.name}: direction must be 'in'/'out'")


@dataclass(frozen=True)
class CellType:
    """One library cell (or macro) with electrical and logical models.

    All electrical values are *pre-node-scaling*; :mod:`repro.tech.library`
    applies the node's scale factors when instantiating a library.
    """

    name: str
    inputs: tuple[str, ...]
    output: str
    intrinsic_ps: float
    drive_res: float          # ohm
    input_cap_ff: float       # per input pin
    leakage_mw: float
    energy_fj: float          # internal energy per output toggle
    area_um2: float
    logic: LogicFn | None = None
    is_sequential: bool = False
    is_macro: bool = False
    is_level_shifter: bool = False
    is_scannable: bool = False
    clock_pin: str | None = None
    extra_pins: tuple[CellPinSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise TechError("cell type needs a name")
        if self.intrinsic_ps < 0 or self.drive_res <= 0:
            raise TechError(f"cell {self.name}: bad delay parameters")
        if self.is_sequential and self.clock_pin is None:
            raise TechError(f"sequential cell {self.name} needs a clock pin")
        if len(set(self.inputs)) != len(self.inputs):
            raise TechError(f"cell {self.name}: duplicate input pin names")
        if self.output in self.inputs:
            raise TechError(f"cell {self.name}: output shadows an input")

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    def pins(self) -> tuple[CellPinSpec, ...]:
        """All pins: declared data inputs, clock, extras, then output.

        Every instance of the cell asks, so the (immutable) tuple is
        built once per cell type by the module-level :func:`_cell_pins`
        cache, not kept on the cell: ``repro.service.keys.tech_digest``
        hashes the pickled tech setup, so a cell must pickle the same
        before and after its first instance.
        """
        return _cell_pins(self)

    def evaluate(self, *input_words: np.ndarray) -> np.ndarray:
        """Bit-parallel logic evaluation; sequential cells pass D through.

        Sequential cells are evaluated in scan/combinational-cone mode,
        where the Q output takes the captured D value — the standard
        full-scan abstraction the fault simulator relies on.
        """
        if self.logic is None:
            raise TechError(f"cell {self.name} has no logic function "
                            "(macro pins are cone boundaries)")
        if len(input_words) != self.num_inputs:
            raise TechError(
                f"cell {self.name} expects {self.num_inputs} inputs, "
                f"got {len(input_words)}")
        return self.logic(*input_words)

    def delay_ps(self, load_ff: float) -> float:
        """Linear NLDM-lite delay for a given output load in fF."""
        if load_ff < 0:
            raise TechError(f"negative load {load_ff} on cell {self.name}")
        # ohm * fF = fs; /1000 -> ps.
        return self.intrinsic_ps + (self.drive_res * load_ff) / 1000.0


@functools.cache
def _cell_pins(cell: CellType) -> tuple[CellPinSpec, ...]:
    out: list[CellPinSpec] = [
        CellPinSpec(name, "in", cell.input_cap_ff) for name in cell.inputs
    ]
    if cell.clock_pin is not None:
        out.append(CellPinSpec(cell.clock_pin, "in", cell.input_cap_ff * 0.8))
    out.extend(cell.extra_pins)
    out.append(CellPinSpec(cell.output, "out", 0.0))
    return tuple(out)


# -- reference (28 nm, unit-drive) cell definitions --------------------------
# intrinsic_ps, drive_res(ohm), input_cap(fF), leakage(mW), energy(fJ), area(um2)

def reference_cells() -> list[CellType]:
    """The unscaled 28 nm reference library.

    Drive strengths: a plain and a "_X2" variant for the workhorse
    gates, so the generators can pick stronger drivers for high-fanout
    tree nodes (MAERI's distribution tree in particular).
    """
    cells = [
        CellType("INV", ("A",), "Y", 8.0, 2600.0, 0.9, 2.0e-6, 0.35, 0.5, _inv),
        CellType("INV_X2", ("A",), "Y", 8.5, 1300.0, 1.7, 3.6e-6, 0.55, 0.9, _inv),
        CellType("BUF", ("A",), "Y", 14.0, 2200.0, 0.9, 2.4e-6, 0.50, 0.8, _buf),
        CellType("BUF_X4", ("A",), "Y", 16.0, 600.0, 3.2, 7.0e-6, 1.30, 2.6, _buf),
        CellType("NAND2", ("A", "B"), "Y", 10.0, 2900.0, 1.0, 2.8e-6, 0.45, 0.8, _nand2),
        CellType("NAND2_X2", ("A", "B"), "Y", 10.5, 1500.0, 1.9, 5.0e-6, 0.75, 1.4, _nand2),
        CellType("NOR2", ("A", "B"), "Y", 11.0, 3300.0, 1.0, 2.8e-6, 0.45, 0.8, _nor2),
        CellType("AND2", ("A", "B"), "Y", 16.0, 2500.0, 1.0, 3.2e-6, 0.60, 1.1, _and2),
        CellType("OR2", ("A", "B"), "Y", 17.0, 2500.0, 1.0, 3.2e-6, 0.60, 1.1, _or2),
        CellType("XOR2", ("A", "B"), "Y", 22.0, 3100.0, 1.4, 4.4e-6, 0.95, 1.7, _xor2),
        CellType("XNOR2", ("A", "B"), "Y", 22.5, 3100.0, 1.4, 4.4e-6, 0.95, 1.7, _xnor2),
        CellType("AOI21", ("A", "B", "C"), "Y", 13.0, 3000.0, 1.1, 3.4e-6, 0.60, 1.2, _aoi21),
        CellType("OAI21", ("A", "B", "C"), "Y", 13.5, 3000.0, 1.1, 3.4e-6, 0.60, 1.2, _oai21),
        CellType("MUX2", ("A", "B", "S"), "Y", 20.0, 2800.0, 1.2, 4.0e-6, 0.85, 1.8, _mux2),
        CellType("MUX2_X4", ("A", "B", "S"), "Y", 22.0, 700.0, 2.6, 9.0e-6, 1.70, 3.6, _mux2),
        # Transmission-gate pass mux: the DFT-repair structure parked
        # at F2F pads.  Functional mode is a pass gate + keeper, so the
        # in-path penalty is small — the paper's post-routing ECO keeps
        # the "timing impact of these solutions minimal" (Sec. III-D).
        CellType("TGMUX", ("A", "B", "S"), "Y", 3.0, 650.0, 0.8, 5.0e-6, 0.70, 2.2, _mux2),
        CellType("AND3", ("A", "B", "C"), "Y", 20.0, 2700.0, 1.0, 3.8e-6, 0.70, 1.5, _and3),
        CellType("OR3", ("A", "B", "C"), "Y", 21.0, 2700.0, 1.0, 3.8e-6, 0.70, 1.5, _or3),
        CellType("MAJ3", ("A", "B", "C"), "Y", 24.0, 2900.0, 1.3, 4.6e-6, 1.00, 2.0, _maj3),
        CellType("XOR3", ("A", "B", "C"), "Y", 30.0, 3200.0, 1.5, 5.2e-6, 1.25, 2.4, _xor3),
        CellType("DFF", ("D",), "Q", 45.0, 2400.0, 1.1, 9.0e-6, 2.10, 4.5,
                 _buf, is_sequential=True, clock_pin="CK"),
        CellType("SDFF", ("D", "SI", "SE"), "Q", 48.0, 2400.0, 1.1, 1.1e-5,
                 2.30, 5.4, _mux2, is_sequential=True, clock_pin="CK",
                 is_scannable=True),
        CellType("CLKBUF", ("A",), "Y", 12.0, 800.0, 2.4, 5.0e-6, 1.10, 2.0, _buf),
        CellType("LVLSHIFT", ("A",), "Y", 28.0, 2000.0, 1.6, 1.4e-5, 1.90, 3.2,
                 _buf, is_level_shifter=True),
        # SRAM macro: black box for logic purposes; sequential endpoint.
        # Access time dominates; the Q side drives like a strong buffer.
        CellType("SRAM_1KX32", ("D", "A0", "A1", "A2", "WE"), "Q",
                 180.0, 500.0, 2.8, 4.0e-3, 45.0, 900.0, None,
                 is_sequential=True, is_macro=True, clock_pin="CK"),
    ]
    return cells
