"""Per-net reference implementations of the route topology.

The router reads each net's pin points, Prim MST parents, L-path
gcells and footprint from one batched, array-native pass
(:func:`repro.route.steiner.build_route_topology`).  These are the
scalar, one-net-at-a-time definitions that pass must reproduce
exactly — the seed router's own code, kept as the executable spec.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RoutingError


def build_route_points(net, placement) -> list[tuple[float, float, int,
                                                     object]]:
    """Pin points of a net as (x, y, tier, pin), driver first."""
    if net.driver is None:
        raise RoutingError(f"net {net.name} has no driver to route from")
    points = []
    for pin in net.pins():
        loc = placement.of_pin(pin)
        points.append((loc.x, loc.y, loc.tier, pin))
    return points


def mst_parents(xs: np.ndarray, ys: np.ndarray) -> list[int]:
    """Prim MST parents under manhattan distance, rooted at index 0.

    Returns ``parent[i]`` for every node (parent[0] == -1).  O(n^2).
    """
    n = len(xs)
    if n == 0:
        raise RoutingError("mst_parents needs at least one point")
    parent = [-1] * n
    if n == 1:
        return parent
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    # best[i] = manhattan distance from i to its closest in-tree node
    best = np.abs(xs - xs[0]) + np.abs(ys - ys[0])
    best_src = np.zeros(n, dtype=int)
    best[0] = np.inf
    for _ in range(n - 1):
        nxt = int(np.argmin(best))
        if not np.isfinite(best[nxt]):
            raise RoutingError("point set is not connectable")
        parent[nxt] = int(best_src[nxt])
        in_tree[nxt] = True
        dist = np.abs(xs - xs[nxt]) + np.abs(ys - ys[nxt])
        closer = (~in_tree) & (dist < best)
        best = np.where(closer, dist, best)
        best_src = np.where(closer, nxt, best_src)
        best[nxt] = np.inf
    return parent


def l_path_gcells(x0: float, y0: float, x1: float, y1: float,
                  gcell: float, nx: int, ny: int) -> list[tuple[int, int]]:
    """Gcells crossed by an L-route (horizontal-then-vertical).

    Deterministic lower-L realization; returns unique (ix, iy) pairs
    clamped to the grid.
    """
    def clamp(v: int, hi: int) -> int:
        return min(max(v, 0), hi - 1)

    ix0, iy0 = clamp(int(x0 / gcell), nx), clamp(int(y0 / gcell), ny)
    ix1, iy1 = clamp(int(x1 / gcell), nx), clamp(int(y1 / gcell), ny)
    cells: list[tuple[int, int]] = []
    step = 1 if ix1 >= ix0 else -1
    for ix in range(ix0, ix1 + step, step):
        cells.append((ix, iy0))
    step = 1 if iy1 >= iy0 else -1
    for iy in range(iy0, iy1 + step, step):
        if (ix1, iy) != cells[-1]:
            cells.append((ix1, iy))
    return cells


def footprint_gcells(xs, ys, parents: list[int], gcell: float, nx: int,
                     ny: int) -> frozenset[tuple[int, int]]:
    """Every gcell a net's routing can read or write: the union of the
    L-path cells over its MST edges."""
    cells: set[tuple[int, int]] = set()
    for child in range(1, len(parents)):
        parent = parents[child]
        cells.update(l_path_gcells(xs[parent], ys[parent],
                                   xs[child], ys[child], gcell, nx, ny))
    return frozenset(cells)


def edge_cells(xs, ys, parents: list[int], gcell: float, nx: int,
               ny: int) -> list[list[int]]:
    """Per child node (index 1..n-1), the ordered L-path cells of the
    edge from its parent, as flat ``ix * ny + iy`` indices."""
    return [[ix * ny + iy
             for ix, iy in l_path_gcells(xs[parents[c]], ys[parents[c]],
                                         xs[c], ys[c], gcell, nx, ny)]
            for c in range(1, len(parents))]


def long_nets_first(nets, placement) -> list[str]:
    """Net names in the router's order: pin bounding-box
    half-perimeter descending, then name."""
    def est_len(net) -> float:
        points = build_route_points(net, placement)
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    return [net.name
            for net in sorted(nets, key=lambda n: (-est_len(n), n.name))]
