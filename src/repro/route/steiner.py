"""Route topology: pin points, Prim MST and L-path gcells as flat arrays.

Global routing at gcell resolution only needs edge lengths and rough
paths, so a rectilinear MST (Prim) with L-shaped edge realization is
the right fidelity/speed point: within ~10 % of RSMT length for the
fanouts in our designs, exact for 2-pin nets (the vast majority).

None of it depends on congestion — only on pin locations and the grid
geometry — so :func:`build_route_topology` computes it for a whole
set of nets in one batched pass: Prim runs over all nets with the same
pin count at once, and every L-path is cut from one ``arange``.  The
result, a :class:`RouteTopology`, is a handful of NumPy arrays plus
offsets.  It is derived data: the router caches it on the placement
it was built from, every route of that placement shares it, and it is
never pickled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import RoutingError
from repro.netlist.net import Net
from repro.place.placement import Placement


@dataclass(eq=False)
class RouteTopology:
    """Per-pin routing geometry for a list of nets, CSR by net.

    Net ``nets[r]`` (row ``r``) owns the pin slots
    ``pin_ptr[r]:pin_ptr[r + 1]``: its driver, then its sinks, in
    ``Net.pins()`` order.  Slot ``p`` holds the pin's point ``x[p]``,
    ``y[p]``, ``tier[p]``; its Prim parent as an index local to the net
    (``parent[p]``, -1 for the driver); and the tree edge from that
    parent: manhattan ``length[p]`` and the L-path gcells
    ``cells[cell_ptr[p]:cell_ptr[p + 1]]`` (flat ``ix * ny + iy``,
    horizontal leg first, as :meth:`CongestionGrid.path_load
    <repro.route.grid.CongestionGrid.path_load>` takes them).  A
    driver slot owns no cells, so a net's footprint — every gcell its
    routing can read or write — is one contiguous run of ``cells``.

    ``order`` lists the rows long nets first, the router's net order.
    ``key`` says what the topology was built for (see
    :meth:`repro.route.router.GlobalRouter.topology`).
    """

    key: tuple
    nets: list[Net]
    pin_ptr: np.ndarray         # int64 [N + 1]
    x: np.ndarray               # float64 [P]
    y: np.ndarray               # float64 [P]
    tier: np.ndarray            # int8 [P]
    parent: np.ndarray          # int32 [P], local index
    length: np.ndarray          # float64 [P], 0 for drivers
    cell_ptr: np.ndarray        # int64 [P + 1]
    cells: np.ndarray           # int32 [C]
    order: np.ndarray           # int32 [N]
    #: net name -> row
    rows: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self.rows = {net.name: row for row, net in enumerate(self.nets)}

    def __reduce__(self):
        raise TypeError("RouteTopology is derived data and is never "
                        "pickled; rebuild it from the placement")

    def footprint(self, row: int) -> np.ndarray:
        """Flat gcell indices net *row*'s routing can read or write.

        The L-path cells of its MST edges (with repeats).  Because the
        MST and the L-realization depend only on pin locations — never
        on congestion — this is known *before* routing, and it bounds
        every ``path_load``/``f2f_load`` query and usage update the
        router makes for the net (F2F pads sit on path endpoints,
        which are path cells).  Two nets with disjoint footprints
        therefore route independently.
        """
        ptr = self.cell_ptr
        return self.cells[ptr[self.pin_ptr[row]]:ptr[self.pin_ptr[row + 1]]]

    def edge_cells(self, row: int) -> tuple[list[int], list[int]]:
        """(cells, ptr) of net *row* as plain lists.

        The edge into the net's pin ``c`` covers ``cells[ptr[c]:ptr[c
        + 1]]``.
        """
        lo, hi = self.pin_ptr[row], self.pin_ptr[row + 1]
        ptr = self.cell_ptr[lo:hi + 1]
        base = ptr[0]
        return (self.cells[base:ptr[-1]].tolist(), (ptr - base).tolist())


def build_route_topology(nets: Sequence[Net], placement: Placement,
                         gcell: float, nx: int, ny: int,
                         key: tuple = ()) -> RouteTopology:
    """Points, MST parents, edge lengths, L-paths and order of *nets*.

    One batched pass: the same code serves a whole design and a single
    net (an ECO re-route against a stale topology).
    """
    sizes: list[int] = []
    xs: list[float] = []
    ys: list[float] = []
    tiers: list[int] = []
    of_pin = placement.of_pin
    for net in nets:
        if net.driver is None:
            raise RoutingError(f"net {net.name} has no driver to route from")
        pins = net.pins()
        sizes.append(len(pins))
        for pin in pins:
            loc = of_pin(pin)
            xs.append(loc.x)
            ys.append(loc.y)
            tiers.append(loc.tier)
    pin_ptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=pin_ptr[1:])
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    parent = _prim_parents(x, y, pin_ptr)
    length, cell_ptr, cells = _tree_edges(x, y, parent, pin_ptr,
                                          gcell, nx, ny)
    return RouteTopology(
        key=key, nets=list(nets), pin_ptr=pin_ptr, x=x, y=y,
        tier=np.asarray(tiers, dtype=np.int8), parent=parent,
        length=length, cell_ptr=cell_ptr, cells=cells,
        order=_long_nets_first(nets, x, y, pin_ptr))


def _prim_parents(x: np.ndarray, y: np.ndarray,
                  pin_ptr: np.ndarray) -> np.ndarray:
    """Prim MST parents under manhattan distance, rooted at each
    net's first pin, for every net at once.

    Nets with the same pin count *n* run as one ``[m, n]`` batch.  Each
    step keeps the scalar algorithm's arithmetic and tie-breaks: the
    same float64 ``abs(dx) + abs(dy)``, the first index on ``argmin``
    ties, and a strict ``<`` to adopt a closer tree node.
    """
    parent = np.full(len(x), -1, dtype=np.int32)
    sizes = np.diff(pin_ptr)
    for n in np.unique(sizes).tolist():
        if n < 2:
            continue
        rows = np.flatnonzero(sizes == n)
        if n == 2:
            parent[pin_ptr[rows] + 1] = 0
            continue
        slots = pin_ptr[rows][:, None] + np.arange(n)
        px, py = x[slots], y[slots]
        m = len(rows)
        span = np.arange(m)
        best = np.abs(px - px[:, :1]) + np.abs(py - py[:, :1])
        best_src = np.zeros((m, n), dtype=np.int32)
        in_tree = np.zeros((m, n), dtype=bool)
        in_tree[:, 0] = True
        best[:, 0] = np.inf
        local = np.full((m, n), -1, dtype=np.int32)
        for _ in range(n - 1):
            nxt = np.argmin(best, axis=1)
            local[span, nxt] = best_src[span, nxt]
            in_tree[span, nxt] = True
            dist = np.abs(px - px[span, nxt][:, None]) \
                + np.abs(py - py[span, nxt][:, None])
            closer = ~in_tree & (dist < best)
            best = np.where(closer, dist, best)
            best_src = np.where(closer, nxt[:, None].astype(np.int32),
                                best_src)
            best[span, nxt] = np.inf
        parent[slots] = local
    return parent


def _tree_edges(x: np.ndarray, y: np.ndarray, parent: np.ndarray,
                pin_ptr: np.ndarray, gcell: float, nx: int, ny: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(length, cell_ptr, cells) of every parent -> child tree edge.

    Each edge is realized as a lower L: horizontal along the parent's
    gcell row, then vertical along the child's column, with unique
    cells clamped to the grid.  Gcell coordinates use ``int()``
    truncation before the clamp, as the congestion grid does.
    """
    count = len(x)
    child = np.flatnonzero(parent >= 0)
    first = np.repeat(pin_ptr[:-1], np.diff(pin_ptr))
    src = first[child] + parent[child]
    length = np.zeros(count, dtype=np.float64)
    length[child] = np.abs(x[src] - x[child]) + np.abs(y[src] - y[child])

    ix = np.clip((x / gcell).astype(np.int64), 0, nx - 1)
    iy = np.clip((y / gcell).astype(np.int64), 0, ny - 1)
    ix0, iy0, ix1, iy1 = ix[src], iy[src], ix[child], iy[child]
    horiz = np.abs(ix1 - ix0) + 1
    sizes = horiz + np.abs(iy1 - iy0)
    per_slot = np.zeros(count, dtype=np.int64)
    per_slot[child] = sizes
    cell_ptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(per_slot, out=cell_ptr[1:])

    edge = np.repeat(np.arange(len(child)), sizes)
    step = np.arange(int(cell_ptr[-1])) - cell_ptr[child][edge]
    h = horiz[edge]
    on_horiz = step < h
    cx = np.where(on_horiz,
                  ix0[edge] + np.where(ix1 >= ix0, 1, -1)[edge] * step,
                  ix1[edge])
    cy = np.where(on_horiz, iy0[edge],
                  iy0[edge] + np.where(iy1 >= iy0, 1, -1)[edge]
                  * (step - h + 1))
    cells = (cx * ny + cy).astype(np.int32)
    return length, cell_ptr, cells


def _long_nets_first(nets: Sequence[Net], x: np.ndarray, y: np.ndarray,
                     pin_ptr: np.ndarray) -> np.ndarray:
    """Rows by descending bounding-box half-perimeter, then name."""
    if not len(nets):
        return np.zeros(0, dtype=np.int32)
    starts = pin_ptr[:-1]
    est = ((np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts))
           + (np.maximum.reduceat(y, starts)
              - np.minimum.reduceat(y, starts))).tolist()
    order = sorted(range(len(nets)), key=lambda r: (-est[r], nets[r].name))
    return np.asarray(order, dtype=np.int32)


def tree_edge_cells(xs: list[float], ys: list[float], parents: list[int],
                    gcell: float, nx: int, ny: int
                    ) -> tuple[list[int], list[int]]:
    """(cells, ptr) of one routed tree, laid out as
    :meth:`RouteTopology.edge_cells`: the L-path cells of the edge into
    node ``c`` are ``cells[ptr[c]:ptr[c + 1]]``.

    For a tree whose net no longer matches the topology (a netlist
    edit since it was routed), computed from the tree's own nodes.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    _, ptr, cells = _tree_edges(
        x, y, np.asarray(parents, dtype=np.int32),
        np.array([0, len(xs)], dtype=np.int64), gcell, nx, ny)
    return cells.tolist(), ptr.tolist()
