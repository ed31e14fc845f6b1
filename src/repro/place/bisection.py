"""Recursive-bisection global placement with terminal propagation.

The pure quadratic solve collapses interchangeable clusters onto one
point (all 128 MAERI PEs land within a few micrometres), and no local
spreading can recover locality from that.  Top-down bisection is the
classical fix: split the region, divide the cells by their solved
coordinate along the long axis (area-balanced), anchor every cell to
its region center with growing weight, re-solve, recurse.  Connected
cells stay together because each re-solve lets connectivity rearrange
cells *within* their regions while anchors encode the spatial
commitment made so far.

Implementation notes: all per-level bookkeeping (area-median splits,
region clamping, leaf grid layout) runs as whole-array NumPy over flat
arrays keyed by a stable cell index, and every level's solve is served
by one cached :class:`~repro.place.system.PlacementSystem` (the
connectivity Laplacian never changes between levels — only the anchor
diagonal and RHS do).  ``reuse_system=False`` rebuilds the system per
level; the results are bit-identical either way, which the test suite
and ``benchmarks/bench_place.py`` enforce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import PlacementError
from repro.netlist.netlist import Netlist
from repro.obs import metrics, trace
from repro.place.floorplan import Floorplan
from repro.place.system import NetConnectivity, PlacementSystem

#: Stop splitting when a region holds at most this many cells.
DEFAULT_LEAF_CELLS = 24
#: Stop *solving* (keep splitting) once every region is within this
#: multiple of the leaf size — see the loop comment below.
SOLVE_STOP_MULT = 2
#: Anchor weight at the first level; doubles per level.
DEFAULT_BASE_ANCHOR = 0.01


@dataclass
class _Region:
    x0: float
    y0: float
    x1: float
    y1: float
    cells: np.ndarray           # stable cell indices into the movable list

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)


def _split(region: _Region, xs: np.ndarray, ys: np.ndarray,
           areas: np.ndarray, name_rank: np.ndarray
           ) -> tuple[_Region, _Region]:
    """Split along the long axis at the area median of solved coords."""
    cells = region.cells
    horizontal = region.width >= region.height
    coord = xs[cells] if horizontal else ys[cells]
    order = np.lexsort((name_rank[cells], coord))  # coord, then name
    ordered = cells[order]
    csum = np.cumsum(areas[ordered])
    total = float(csum[-1])
    half = total / 2.0
    cut = int(np.searchsorted(csum, half, side="left")) + 1
    cut = max(1, min(cut, len(ordered) - 1))
    first, second = ordered[:cut], ordered[cut:]
    frac = max(0.1, min(0.9, float(csum[cut - 1]) / total))
    if horizontal:
        xm = region.x0 + frac * region.width
        return (_Region(region.x0, region.y0, xm, region.y1, first),
                _Region(xm, region.y0, region.x1, region.y1, second))
    ym = region.y0 + frac * region.height
    return (_Region(region.x0, region.y0, region.x1, ym, first),
            _Region(region.x0, ym, region.x1, region.y1, second))


def _layout_leaf(region: _Region, xs: np.ndarray, ys: np.ndarray,
                 name_rank: np.ndarray) -> None:
    """Arrange a leaf region's cells on a compact grid (in place),
    ordered by the solved coordinates so intra-leaf adjacency is
    preserved."""
    cells = region.cells
    n = len(cells)
    if n == 0:
        return
    order = np.lexsort((name_rank[cells], xs[cells], ys[cells]))
    ordered = cells[order]
    cols = max(1, int(math.ceil(math.sqrt(n * max(region.width, 1e-6)
                                          / max(region.height, 1e-6)))))
    rows = int(math.ceil(n / cols))
    r, c = np.divmod(np.arange(n), cols)
    xs[ordered] = region.x0 + (c + 0.5) * region.width / cols
    ys[ordered] = region.y0 + (r + 0.5) * region.height / max(rows, 1)


def bisection_place(netlist: Netlist, fixed: dict[str, tuple[float, float]],
                    fp: Floorplan, movable: list[str],
                    conn: NetConnectivity | None = None,
                    reuse_system: bool = True
                    ) -> dict[str, tuple[float, float]]:
    """Place *movable* instances inside the core area.

    Returns name -> (x, y).  ``fixed`` holds port/macro anchors (same
    key convention as :func:`~repro.place.quadratic.quadratic_solve`).
    ``conn`` optionally shares a pre-built connectivity with the
    caller; ``reuse_system=False`` rebuilds the placement system at
    every level (bit-identical, for verification).
    """
    if not movable:
        return {}
    names = list(movable)
    n = len(names)
    if conn is None:
        conn = NetConnectivity.from_netlist(netlist)

    def fresh_system() -> PlacementSystem:
        return PlacementSystem(netlist, fixed, fp, movable=names, conn=conn)

    system = fresh_system()
    areas = np.array([max(netlist.instance(name).cell.area_um2, 0.1)
                      for name in names])
    # Stable tie-break key: the cell name's lexicographic rank.
    name_rank = np.empty(n, dtype=np.int64)
    name_rank[np.array(sorted(range(n), key=names.__getitem__),
                       dtype=np.int64)] = np.arange(n)

    xs, ys = system.solve_arrays()
    regions = [_Region(0.0, 0.0, fp.width, fp.core_height,
                       np.arange(n, dtype=np.int64))]
    weight = DEFAULT_BASE_ANCHOR
    all_idx = np.arange(n, dtype=np.int64)
    level = 0
    while max(len(r.cells) for r in regions) > DEFAULT_LEAF_CELLS:
        level += 1
        next_regions: list[_Region] = []
        for region in regions:
            if len(region.cells) <= DEFAULT_LEAF_CELLS:
                next_regions.append(region)
                continue
            a, b = _split(region, xs, ys, areas, name_rank)
            next_regions.extend((a, b))
        regions = next_regions
        if max(len(r.cells) for r in regions) \
                <= DEFAULT_LEAF_CELLS * SOLVE_STOP_MULT:
            # Regions are within a level or two of leaf size: at this
            # depth the anchor weight dominates connectivity, so
            # another full factorization would barely move cells
            # inside their (tiny) regions before the leaf grid
            # quantizes them anyway.  Keep splitting on the last
            # solved coordinates and skip the remaining solves —
            # measured HPWL impact is under 1% on every fabric.
            metrics.inc("place.levels")
            metrics.inc("place.solves_skipped")
            weight *= 2.0
            continue
        # Terminal propagation: anchor every cell to its region center
        # and re-solve so connectivity optimizes within commitments.
        cx = np.empty(n)
        cy = np.empty(n)
        lo_x = np.empty(n)
        hi_x = np.empty(n)
        lo_y = np.empty(n)
        hi_y = np.empty(n)
        for region in regions:
            cells = region.cells
            ccx, ccy = region.center
            cx[cells] = ccx
            cy[cells] = ccy
            lo_x[cells] = region.x0
            hi_x[cells] = region.x1
            lo_y[cells] = region.y0
            hi_y[cells] = region.y1
        metrics.inc("place.levels")
        metrics.inc("place.level_solves")
        with trace.span("place.solve", level=level, regions=len(regions)):
            if not reuse_system:
                system = fresh_system()
            xs, ys = system.solve_arrays(all_idx, cx, cy, weight)
        # Clamp each cell into its region so the next split is local.
        np.clip(xs, lo_x, hi_x, out=xs)
        np.clip(ys, lo_y, hi_y, out=ys)
        weight *= 2.0

    placed = np.zeros(n, dtype=bool)
    count = 0
    for region in regions:
        _layout_leaf(region, xs, ys, name_rank)
        placed[region.cells] = True
        count += len(region.cells)
    if count != n or not placed.all():
        raise PlacementError(f"bisection lost cells: {count} != {n}")
    return {name: (float(xs[i]), float(ys[i]))
            for i, name in enumerate(names)}
