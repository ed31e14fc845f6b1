"""Sparse quadratic placement with star/clique net models.

Minimizes sum over nets of squared pin-to-pin distance subject to fixed
anchors (ports, macros), the classic analytical-placement formulation.
Small nets use a clique model; large nets a star with a virtual movable
node, keeping the system sparse.

Clock nets are excluded: a design-wide ideal clock would otherwise
pull every flop to the centroid.

This module is the stable entry point; the heavy lifting lives in
:mod:`repro.place.system`.  :func:`quadratic_solve` builds a
:class:`~repro.place.system.PlacementSystem` and solves it once —
callers that solve the same movable/fixed split repeatedly (the
bisection placer) hold on to the system instead and reuse its cached
assembly, which is bit-identical by construction (same code path).
"""

from __future__ import annotations

from repro.netlist.netlist import Netlist
from repro.place.floorplan import Floorplan
from repro.place.system import (CENTER_REG, CLIQUE_LIMIT, NetConnectivity,
                                PlacementSystem)

__all__ = ["CLIQUE_LIMIT", "CENTER_REG", "quadratic_solve"]


def quadratic_solve(netlist: Netlist, fixed: dict[str, tuple[float, float]],
                    fp: Floorplan,
                    movable: list[str] | None = None,
                    anchors: dict[str, tuple[float, float]] | None = None,
                    anchor_weight: float = 0.0,
                    conn: NetConnectivity | None = None
                    ) -> dict[str, tuple[float, float]]:
    """Solve for (x, y) of movable instances.

    Parameters
    ----------
    fixed:
        Instance/port-pin anchor positions.  Keys are instance names
        or ``"port:NAME"`` for port pins.
    movable:
        Instances to solve for; defaults to every instance not in
        *fixed*.
    anchors / anchor_weight:
        SimPL-style pseudo-anchors: each movable instance present in
        *anchors* is pulled toward that position with *anchor_weight*
        (the terminal-propagation pull bisection applies per level).
    conn:
        Optional pre-built :class:`NetConnectivity` for *netlist*,
        shared across solves to skip the per-call net walk.

    Returns a dict instance name -> (x, y), unclamped (bisection and
    legalization handle the outline).
    """
    system = PlacementSystem(netlist, fixed, fp, movable=movable, conn=conn)
    return system.solve(anchors=anchors, anchor_weight=anchor_weight)
