"""Top-level two-tier placer.

Stages (mirroring a pseudo-3D flow):

1. Ports are pinned around the boundary of their tier.
2. Joint quadratic solve over *all* instances (both tiers share x/y),
   macros movable — this aligns vertically-related cells, keeping
   cross-tier nets short exactly as Macro-3D intends.
3. Macros snap into the memory-tier band and become fixed anchors.
4. Recursive bisection of the standard cells against ports+macros.
5. Per-tier row legalization.

The net connectivity arrays (:class:`~repro.place.system
.NetConnectivity`) are built once and shared between the macro-seeding
solve and every bisection level.
"""

from __future__ import annotations

from repro.netlist.netlist import Netlist
from repro.obs import trace
from repro.partition.tier import TIER_LOGIC, TIER_MEMORY, TierAssignment
from repro.place.floorplan import Floorplan, make_floorplan
from repro.place.legalize import legalize_macros, legalize_tier
from repro.place.placement import Placement
from repro.place.quadratic import quadratic_solve
from repro.place.bisection import bisection_place
from repro.place.system import NetConnectivity


def _pin_ports(netlist: Netlist, tiers: TierAssignment, fp: Floorplan,
               placement: Placement) -> dict[str, tuple[float, float]]:
    """Distribute ports evenly along the boundary; logic-tier ports on
    the bottom/left edges, memory-tier ports on the top/right, which
    loosely matches pad access per die in an F2F stack."""
    fixed: dict[str, tuple[float, float]] = {}
    by_tier: dict[int, list[str]] = {TIER_LOGIC: [], TIER_MEMORY: []}
    for name in sorted(netlist.ports):
        by_tier[tiers.of_port(name)].append(name)
    for tier, names in by_tier.items():
        if not names:
            continue
        perimeter = 2 * (fp.width + fp.height)
        for i, name in enumerate(names):
            t = (i + 0.5) / len(names) * perimeter
            if tier == TIER_MEMORY:
                t = (t + fp.width + fp.height) % perimeter  # opposite side
            if t < fp.width:
                x, y = t, 0.0
            elif t < fp.width + fp.height:
                x, y = fp.width, t - fp.width
            elif t < 2 * fp.width + fp.height:
                x, y = 2 * fp.width + fp.height - t, fp.height
            else:
                x, y = 0.0, perimeter - t
            placement.set_port(name, x, y)
            fixed[f"port:{name}"] = (x, y)
    return fixed


def place_design(netlist: Netlist, tiers: TierAssignment
                 ) -> tuple[Placement, Floorplan]:
    """Place *netlist* per *tiers*; returns (placement, floorplan)."""
    fp = make_floorplan(netlist, utilization=0.45)
    placement = Placement(netlist, tiers)
    fixed = _pin_ports(netlist, tiers, fp, placement)

    macro_names = [n for n, inst in netlist.instances.items() if inst.is_macro]
    std_names = [n for n in netlist.instances if n not in set(macro_names)]

    conn = NetConnectivity.from_netlist(netlist)

    # Pass 1: everything movable, to get global macro positions.
    with trace.span("place.quadratic", instances=len(netlist.instances)):
        rough = quadratic_solve(netlist, fixed, fp, conn=conn)
    if macro_names:
        with trace.span("place.macros", macros=len(macro_names)):
            macro_pos = legalize_macros(netlist, macro_names, rough, fp)
            fixed.update(macro_pos)
            placement.set_instances(macro_pos)

    # Pass 2: standard cells against fixed ports + macros via
    # recursive bisection (the pure quadratic solution collapses
    # interchangeable clusters onto one point — see bisection.py).
    with trace.span("place.bisection", cells=len(std_names)):
        spread_pos = bisection_place(netlist, fixed, fp, movable=std_names,
                                     conn=conn)

    with trace.span("place.legalize"):
        for tier in (TIER_LOGIC, TIER_MEMORY):
            tier_names = [n for n in std_names
                          if tiers.of_instance(n) == tier]
            placement.set_instances(
                legalize_tier(netlist, tier_names, spread_pos, fp))

    placement.validate()
    return placement, fp
