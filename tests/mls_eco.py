"""ECO-style MLS toggles on an existing routing, for the tests.

The flow never toggles single nets: its targeted routing re-routes
differentially through :func:`repro.mls.route_with_mls`, and Table I
probes with ``reroute_net`` / ``restore_net``.  The incremental-STA,
differential-route and MLS tests make their edits through
:func:`apply_mls_incremental`.
"""

from __future__ import annotations

from repro.design import Design
from repro.route.router import GlobalRouter, RoutingResult
from repro.timing.incremental import IncrementalSta


def apply_mls_incremental(design: Design, router: GlobalRouter,
                          result: RoutingResult,
                          add: set[str] = frozenset(),
                          remove: set[str] = frozenset(),
                          sta: IncrementalSta | None = None
                          ) -> RoutingResult:
    """Toggle MLS on individual nets of an existing routing.

    Nets are processed longest-first so trunk edges claim shared
    resources in the same priority order as the full route.  Pass an
    :class:`~repro.timing.incremental.IncrementalSta` as *sta* to
    patch its arc delays with exactly the toggled nets afterwards.
    """
    netlist = design.netlist
    both = add & remove
    if both:
        raise ValueError(f"nets both added and removed: {sorted(both)[:3]}")

    def hpwl(name: str) -> float:
        net = netlist.net(name)
        x0, y0, x1, y1 = design.require_placement().net_bbox(net)
        return (x1 - x0) + (y1 - y0)

    for name in sorted(remove, key=lambda n: (-hpwl(n), n)):
        router.reroute_net(result, netlist.net(name), mls=False)
    for name in sorted(add, key=lambda n: (-hpwl(n), n)):
        router.reroute_net(result, netlist.net(name), mls=True)
    if sta is not None:
        sta.update(add | remove)
    return result
