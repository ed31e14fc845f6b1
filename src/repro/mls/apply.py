"""Turning an MLS net selection into a routed design."""

from __future__ import annotations

from repro.design import Design
from repro.route.router import GlobalRouter, RoutingResult


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

