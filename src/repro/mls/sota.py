"""State-of-the-art MLS heuristic baseline.

Pentapati & Lim's metal-layer-sharing router [9] assigns nets to the
shared cross-tier layers by physical criteria — long nets and nets in
congested regions benefit from the extra resource — with no per-net
timing evaluation.  That indiscriminateness is precisely what the
paper's Table I critiques: some selected nets get slower.

We reproduce the policy as: every 2-D net whose half-perimeter
wirelength exceeds a threshold, plus shorter 2-D nets whose bounding
box sits in congested gcells, is requested for MLS.
"""

from __future__ import annotations

from repro.design import Design
from repro.netlist.net import Net
from repro.route.router import RoutingResult

#: Nets at or above this HPWL (um) are always selected.
DEFAULT_MIN_HPWL_UM = 18.0
#: Shorter nets are selected when their region's mean track load
#: exceeds this ratio.
DEFAULT_CONGESTION_TRIGGER = 0.85


def _net_is_2d(design: Design, net: Net) -> bool:
    tiers = design.require_tiers()
    return len(tiers.net_tiers(net)) == 1


def sota_select(design: Design, routing: RoutingResult | None = None,
                min_hpwl_um: float = DEFAULT_MIN_HPWL_UM) -> set[str]:
    """Select MLS nets by the SOTA heuristic.

    *routing* (typically the no-MLS baseline) supplies the congestion
    picture for the secondary criterion; without it only the length
    rule applies.
    """
    placement = design.require_placement()
    selected: set[str] = set()
    for net in design.netlist.signal_nets():
        if not _net_is_2d(design, net):
            continue
        x0, y0, x1, y1 = placement.net_bbox(net)
        hpwl = (x1 - x0) + (y1 - y0)
        if hpwl >= min_hpwl_um:
            selected.add(net.name)
            continue
        if routing is None or hpwl < 4.0:
            continue
        tier = design.require_tiers().of_pin(net.driver)
        grid = routing.grid
        cx0, cy0 = grid.clamp_cell(x0, y0)
        cx1, cy1 = grid.clamp_cell(x1, y1)
        cells = [ix * grid.ny + iy for ix in range(cx0, cx1 + 1)
                 for iy in range(cy0, cy1 + 1)]
        # Congestion of the pair the net would normally use.
        load = max(grid.path_load(tier, pair, cells)
                   for pair in range(grid.num_pairs(tier)))
        if load >= DEFAULT_CONGESTION_TRIGGER:
            selected.add(net.name)
    return selected
