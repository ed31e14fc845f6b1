"""Congestion-aware 3D global routing with Metal Layer Sharing.

The router models what the paper's targeted-routing stage does inside
Innovus: Steiner trees on a gcell grid, length-based layer-pair
assignment with congestion fallback, F2F via insertion for cross-tier
(3-D) nets, and — the paper's subject — *Metal Layer Sharing*, where a
2-D net's long trunk edges borrow the other tier's thick top metals
through a pair of F2F vias (Figure 1's "2d-shared net").
"""

from repro.route.tree import RouteNode, RouteEdge, RouteTree
from repro.route.steiner import RouteTopology, build_route_topology
from repro.route.grid import CongestionGrid
from repro.route.rc import NetRC, RcTables
from repro.route.router import GlobalRouter, RouteConfig, RoutingResult

__all__ = [
    "RouteNode",
    "RouteEdge",
    "RouteTree",
    "RouteTopology",
    "build_route_topology",
    "CongestionGrid",
    "NetRC",
    "RcTables",
    "GlobalRouter",
    "RouteConfig",
    "RoutingResult",
]
