"""Reference float32 congestion grid.

The router's :class:`repro.route.grid.CongestionGrid` holds every
demand plane as a flat list of whole-track ints and answers "is this
path full?" by comparing an int sum against a precomputed threshold.
This is the seed's own float32 grid, kept as the executable spec the
int grid must reproduce exactly (``tests/test_grid_oracle.py``): the
same ``usage``/``f2f_usage`` bytes after any add/release sequence, the
same ``path_load``/``f2f_load`` values, and a ``path_full`` that
answers this grid's ``path_load >= 1.0``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import RoutingError
from repro.place.floorplan import Floorplan
from repro.tech.layers import F2FVia, MetalStack


class Float32CongestionGrid:
    """Per-tier, per-pair track usage plus F2F pad usage."""

    def __init__(self, fp: Floorplan, stacks: tuple[MetalStack, MetalStack],
                 f2f: F2FVia, gcell_um: float = 5.0,
                 track_util: float = 0.5,
                 pdn_reserved: tuple[float, float] = (0.0, 0.0)):
        if gcell_um <= 0:
            raise RoutingError("gcell size must be positive")
        self.gcell = gcell_um
        self.nx = max(1, math.ceil(fp.width / gcell_um))
        self.ny = max(1, math.ceil(fp.height / gcell_um))
        self.stacks = stacks
        self.f2f = f2f
        self.pdn_reserved = pdn_reserved

        # capacity[tier][pair] = usable tracks crossing one gcell
        self.capacity: list[list[float]] = []
        self.usage: list[list[np.ndarray]] = []
        for tier, stack in enumerate(stacks):
            caps, usages = [], []
            pairs = stack.pairs()
            for pair_idx, (la, lb) in enumerate(pairs):
                pitch = (la.pitch_um + lb.pitch_um) / 2.0
                tracks = (gcell_um / pitch) * 2.0 * track_util
                if pair_idx == len(pairs) - 1:
                    tracks *= max(0.0, 1.0 - pdn_reserved[tier])
                caps.append(max(1.0, tracks))
                usages.append(np.zeros((self.nx, self.ny), dtype=np.float32))
            self.capacity.append(caps)
            self.usage.append(usages)

        # F2F pads: one per pitch^2 of gcell area, halved for power/gnd.
        self.f2f_cap = max(1.0, (gcell_um / f2f.pitch_um) ** 2 * 0.5)
        self.f2f_usage = np.zeros((self.nx, self.ny), dtype=np.float32)

    def num_pairs(self, tier: int) -> int:
        return len(self.capacity[tier])

    def top_pair(self, tier: int) -> int:
        return len(self.capacity[tier]) - 1

    def clamp_cell(self, x: float, y: float) -> tuple[int, int]:
        ix = min(max(int(x / self.gcell), 0), self.nx - 1)
        iy = min(max(int(y / self.gcell), 0), self.ny - 1)
        return ix, iy

    # Every query and mutation takes gcells as flat indices
    # ``ix * ny + iy`` into the row-major (nx, ny) usage planes, the
    # form :class:`~repro.route.steiner.RouteTopology` stores.

    # -- demand queries ------------------------------------------------------

    def path_load(self, tier: int, pair: int, cells) -> float:
        """Mean usage/capacity ratio along *cells* for (tier, pair).

        Mean (not max): a detailed router weaves around single hot
        gcells, so a path is only "full" at global-routing abstraction
        when congestion is sustained along it.
        """
        if not len(cells):
            return 0.0
        plane = self.usage[tier][pair].reshape(-1)
        cap = self.capacity[tier][pair]
        total = sum(map(plane.__getitem__, cells))
        return total / (cap * len(cells))

    def f2f_load(self, cell: int) -> float:
        return self.f2f_usage.item(cell) / self.f2f_cap

    # -- mutation ---------------------------------------------------------------

    def add_path(self, tier: int, pair: int, cells,
                 delta: float = 1.0) -> None:
        grid = self.usage[tier][pair]
        plane = grid.reshape(-1)
        for cell in cells:
            plane[cell] += delta
        if delta < 0:
            np.clip(grid, 0.0, None, out=grid)

    def add_f2f(self, cell: int, delta: float = 1.0) -> None:
        plane = self.f2f_usage.reshape(-1)
        plane[cell] += delta
        if plane[cell] < 0:
            plane[cell] = 0.0

    # -- reporting ---------------------------------------------------------------

    def overflow_cells(self, tier: int, pair: int) -> int:
        """Number of gcells where demand exceeds capacity."""
        return int((self.usage[tier][pair] > self.capacity[tier][pair]).sum())

    def utilization(self, tier: int, pair: int) -> float:
        """Mean demand / capacity over the grid for (tier, pair)."""
        return float(self.usage[tier][pair].mean()
                     / self.capacity[tier][pair])

    def summary(self) -> dict[str, float]:
        out: dict[str, float] = {
            "f2f_peak": float(self.f2f_usage.max()) / self.f2f_cap,
        }
        for tier in range(len(self.usage)):
            for pair in range(self.num_pairs(tier)):
                key = f"t{tier}p{pair}"
                out[f"util_{key}"] = self.utilization(tier, pair)
                out[f"overflow_{key}"] = self.overflow_cells(tier, pair)
        return out
