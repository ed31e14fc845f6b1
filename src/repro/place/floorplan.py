"""Floorplan: die outline, rows, macro band.

Both tiers share one outline (F2F bonding requires matching footprints).
Standard cells legalize onto rows; SRAM macros occupy a reserved band
at the top edge of their tier, matching the memory-die organisation of
Macro-3D designs.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

from repro.errors import PlacementError
from repro.netlist.netlist import Netlist

#: Standard-cell row height in um (28 nm-class library).
ROW_HEIGHT_UM = 1.0
#: Legalization site width in um.
SITE_WIDTH_UM = 0.2
#: Target standard-cell utilization the outline is sized for.
UTILIZATION = 0.45


@dataclass
class Floorplan:
    """Die outline shared by both tiers.

    ``macro_band_h`` is the height in um of the top band reserved for
    macros (zero when the design has none).
    """

    width: float
    height: float
    row_height: float = ROW_HEIGHT_UM
    site_width: float = SITE_WIDTH_UM
    macro_band_h: float = 0.0
    utilization: float = UTILIZATION

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise PlacementError("floorplan must have positive dimensions")
        if self.macro_band_h >= self.height:
            raise PlacementError("macro band swallows the whole die")

    @property
    def core_height(self) -> float:
        """Height available to standard-cell rows."""
        return self.height - self.macro_band_h

    @property
    def num_rows(self) -> int:
        return max(1, int(self.core_height / self.row_height))

    def clamp(self, x: float, y: float) -> tuple[float, float]:
        """Clamp a point into the die outline."""
        return (min(max(x, 0.0), self.width),
                min(max(y, 0.0), self.height))


def make_floorplan(netlist: Netlist) -> Floorplan:
    """Size a square-ish floorplan from total cell area.

    Both tiers share one outline, and the memory-on-logic split is
    lopsided (most standard cells on the logic tier), so the outline
    budgets the full standard-cell area at :data:`UTILIZATION` — the
    dominant tier then lands near it and the other tier is sparse,
    matching the paper's fixed per-benchmark footprints.
    """
    macro_area = sum(i.cell.area_um2 for i in netlist.instances.values()
                     if i.is_macro)
    std_area = netlist.total_cell_area() - macro_area
    core_area = std_area / UTILIZATION
    width = math.sqrt(core_area)
    height = core_area / width
    macro_band = 0.0
    if macro_area > 0:
        # Macros are ~30x30 um; band tall enough for one macro row per
        # ~width/35 macros.
        per_row = max(1, int(width / 35.0))
        num_macros = sum(1 for i in netlist.instances.values() if i.is_macro)
        rows = math.ceil(num_macros / per_row)
        macro_band = rows * 32.0
    height = max(height, 8 * ROW_HEIGHT_UM)
    width = max(width, 8.0)
    return Floorplan(width=width, height=height + macro_band,
                     macro_band_h=macro_band, utilization=UTILIZATION)
