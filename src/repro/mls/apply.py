"""Turning an MLS net selection into a routed design."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.design import Design
from repro.route.router import GlobalRouter, RoutingResult

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.timing.incremental import IncrementalSta


def route_with_mls(design: Design, mls_nets: set[str],
                   previous: RoutingResult | None = None
                   ) -> tuple[GlobalRouter, RoutingResult]:
    """Route the whole design with *mls_nets* shared.

    A full route is the faithful evaluation: it captures not only the
    selected nets' own delay changes but also the congestion relief
    they grant everyone else on the home tier (and the shared-resource
    pressure they put on the other tier — how SOTA's over-application
    backfires).

    Without *previous* the design routes from scratch, one net at a
    time in the serial long-nets-first order.  With *previous* — the
    design's last full-route result — the route is differential: it
    replays *previous* and re-routes only the nets whose inputs could
    have changed, bit-identical to a from-scratch route.  The new
    result's ``changed_nets`` then lists the nets whose tree moved,
    which :meth:`IncrementalSta.update_routing
    <repro.timing.incremental.IncrementalSta.update_routing>` patches
    alone.  See :meth:`GlobalRouter.route_all`.
    """
    router = GlobalRouter(design)
    result = router.route_all(mls_nets=mls_nets, previous=previous)
    return router, result


def apply_mls_incremental(design: Design, router: GlobalRouter,
                          result: RoutingResult,
                          add: set[str] = frozenset(),
                          remove: set[str] = frozenset(),
                          sta: "IncrementalSta | None" = None
                          ) -> RoutingResult:
    """Toggle MLS on individual nets of an existing routing.

    An ECO-style edit, cheaper than a full re-route.  The flow does
    not use it (its targeted routing re-routes differentially through
    :func:`route_with_mls`, and Table I probes with ``reroute_net`` /
    ``restore_net``); the incremental-STA tests make their edits
    through it.  Nets are processed longest-first so trunk edges claim
    shared resources in the same priority order as the full route.

    Pass an :class:`~repro.timing.incremental.IncrementalSta` as *sta*
    to patch its arc delays with exactly the toggled nets afterwards —
    the ECO-loop pairing that keeps timing current without a full STA.
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
