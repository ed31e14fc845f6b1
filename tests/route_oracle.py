"""Per-net reference implementations of the route topology and RC.

The router reads each net's pin points, Prim MST parents, L-path
gcells and footprint from one batched, array-native pass
(:func:`repro.route.steiner.build_route_topology`), and extracts each
tree's parasitics with :meth:`repro.route.rc.RcTables.extract`.  These
are the scalar, one-net-at-a-time definitions both must reproduce
exactly — the seed router's own code, kept as the executable spec.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RoutingError
from repro.route.rc import NetRC
from repro.units import rc_to_ps


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


def _edge_rc(edge, stacks, f2f) -> tuple[float, float]:
    """(R_ohm, C_ff) of one route edge."""
    stack = stacks[edge.tier]
    pairs = stack.pairs()
    if not 0 <= edge.pair < len(pairs):
        raise RoutingError(
            f"net {edge.parent}->{edge.child}: pair {edge.pair} out of "
            f"range for tier {edge.tier}")
    la, lb = pairs[edge.pair]
    r_um = (la.r_per_um + lb.r_per_um) / 2.0
    c_um = (la.c_per_um + lb.c_per_um) / 2.0
    r = r_um * edge.length + edge.via_hops * stack.via_r \
        + edge.n_f2f * f2f.resistance
    c = c_um * edge.length + edge.via_hops * stack.via_c \
        + edge.n_f2f * f2f.capacitance
    if edge.escape_um > 0.0:
        # MLS escape stubs run on the *home* tier's lowest pair.
        home = stacks[1 - edge.tier]
        ea, eb = home.pairs()[0]
        r += (ea.r_per_um + eb.r_per_um) / 2.0 * edge.escape_um
        c += (ea.c_per_um + eb.c_per_um) / 2.0 * edge.escape_um
    return r, c


def extract_rc(tree, stacks, f2f) -> NetRC:
    """Parasitics and per-sink Elmore delays of *tree*, one edge and
    one ``(parent, child)`` dict entry at a time."""
    children: dict[int, list] = {}
    for edge in tree.edges:
        children.setdefault(edge.parent, []).append(edge)
    n = len(tree.nodes)
    edge_rc = {(e.parent, e.child): _edge_rc(e, stacks, f2f)
               for e in tree.edges}

    # Post-order subtree capacitance (iterative to handle deep trees).
    subtree_cap = [0.0] * n
    order: list[int] = []
    stack = [0]
    while stack:
        u = stack.pop()
        order.append(u)
        for e in children.get(u, ()):
            stack.append(e.child)
    for u in reversed(order):
        cap = 0.0
        node = tree.nodes[u]
        if u != 0 and node.pin is not None:
            cap += node.pin.cap_ff
        for e in children.get(u, ()):
            cap += edge_rc[(u, e.child)][1] + subtree_cap[e.child]
        subtree_cap[u] = cap

    # Pre-order Elmore accumulation.
    delay = [0.0] * n
    stack = [0]
    while stack:
        u = stack.pop()
        for e in children.get(u, ()):
            r, c = edge_rc[(u, e.child)]
            delay[e.child] = delay[u] + rc_to_ps(
                r, c / 2.0 + subtree_cap[e.child])
            stack.append(e.child)

    total_r = sum(rc[0] for rc in edge_rc.values())
    total_c = sum(rc[1] for rc in edge_rc.values())
    sink_caps = sum(node.pin.cap_ff for node in tree.sink_nodes())
    sink_delays = {node.pin.full_name: delay[node.idx]
                   for node in tree.sink_nodes()}
    return NetRC(
        net_name=tree.net_name,
        wire_cap_ff=total_c,
        wire_res_ohm=total_r,
        load_ff=total_c + sink_caps,
        wirelength_um=tree.wirelength(),
        sink_delay_ps=sink_delays,
    )
