"""PDN stripe-grid construction.

Each tier carries an orthogonal VDD mesh on its top metal pair:
vertical stripes on the top layer, horizontal on the layer below,
both with the same width/pitch (the paper's "M-T: W/P/U" row).  The
mesh is modeled as a resistor network between stripe crossings; power
pads pin the boundary nodes of the bottom tier, and the top tier draws
through F2F power vias distributed across the overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.design import Design
from repro.errors import PDNError


@dataclass(frozen=True)
class PdnConfig:
    """Stripe geometry per tier (paper Table IV: width / pitch, um)."""

    width_um: float = 2.0
    pitch_um: float = 7.0

    def __post_init__(self) -> None:
        if self.width_um <= 0 or self.pitch_um <= 0:
            raise PDNError("PDN width and pitch must be positive")
        if self.width_um >= self.pitch_um:
            raise PDNError("stripe width must be below the pitch")

    @property
    def utilization(self) -> float:
        """Fraction of the layer consumed by VDD stripes."""
        return self.width_um / self.pitch_um


@dataclass
class PdnGrid:
    """Resistor mesh of one tier's VDD grid.

    Nodes are stripe crossings on an ``nx x ny`` lattice; ``r_seg_x``
    / ``r_seg_y`` are the segment resistances between neighbours.
    ``pad_nodes`` are indices pinned to VDD (boundary ring for the
    bottom tier, F2F power-via lattice for the top tier).
    """

    tier: int
    nx: int
    ny: int
    pitch: float
    r_seg_x: float
    r_seg_y: float
    pad_nodes: list[int]
    vdd: float
    config: PdnConfig

    def node(self, ix: int, iy: int) -> int:
        return iy * self.nx + ix

    @property
    def num_nodes(self) -> int:
        return self.nx * self.ny


def _stripe_resistance_per_um(layer, width_um: float) -> float:
    """Stripe sheet scaling: the layer's per-um figure is for a
    minimum-width track (~pitch/2 wide); widening the stripe divides
    resistance proportionally."""
    track_width = layer.pitch_um / 2.0
    return layer.r_per_um * (track_width / width_um)


def build_pdn(design: Design, config: PdnConfig,
              tier: int, vdd: float) -> PdnGrid:
    """Build the VDD mesh of *tier* at *vdd*."""
    fp = design.require_floorplan()
    stack = design.tech.stack_of(tier)
    pairs = stack.pairs()
    top_a, top_b = pairs[-1]
    nx = max(2, int(fp.width / config.pitch_um))
    ny = max(2, int(fp.height / config.pitch_um))
    r_x = _stripe_resistance_per_um(top_a, config.width_um) * config.pitch_um
    r_y = _stripe_resistance_per_um(top_b, config.width_um) * config.pitch_um

    pad_nodes: list[int] = []
    if tier == 0:
        # Bottom die: package bumps around the boundary ring.
        for ix in range(nx):
            pad_nodes.append(ix)                       # bottom row
            pad_nodes.append((ny - 1) * nx + ix)       # top row
        for iy in range(1, ny - 1):
            pad_nodes.append(iy * nx)
            pad_nodes.append(iy * nx + nx - 1)
    else:
        # Top die: F2F power vias every ~4 crossings across the area
        # (hybrid bonding affords a dense power lattice).
        step = 4
        for iy in range(0, ny, step):
            for ix in range(0, nx, step):
                pad_nodes.append(iy * nx + ix)
    if not pad_nodes:
        raise PDNError("PDN grid has no pad nodes")  # pragma: no cover
    return PdnGrid(tier=tier, nx=nx, ny=ny, pitch=config.pitch_um,
                   r_seg_x=r_x, r_seg_y=r_y,
                   pad_nodes=sorted(set(pad_nodes)), vdd=vdd,
                   config=config)
