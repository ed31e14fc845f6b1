"""Routed-net representation: a tree of wire/via segments.

A :class:`RouteTree` is rooted at the net's driver pin.  Each edge
carries the physical annotation the RC extractor and the congestion
grid need: manhattan length, the tier the wire runs on, the layer-pair
index on that tier, intra-tier via-stack hops, and the number of F2F
hybrid-bond vias (2 for an MLS shared trunk, 1 per genuine tier
crossing of a 3-D net).

A flow holds one tree per net per route, with a node per pin and an
edge per tree edge, so the three classes are slotted: no per-object
``__dict__``.  Each pickles as its constructor arguments, not as
pickle's default ``(None, {slot: value})`` state, which would build
and memoize a dict and a tuple per object in every stored report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RoutingError
from repro.netlist.net import Pin


@dataclass(slots=True)
class RouteNode:
    """A point of the route tree (pin location or Steiner point)."""

    idx: int
    x: float
    y: float
    tier: int
    pin: Pin | None = None

    def __reduce__(self):
        return (RouteNode, (self.idx, self.x, self.y, self.tier, self.pin))


@dataclass(slots=True)
class RouteEdge:
    """Directed tree edge parent -> child with physical annotation.

    ``length`` already includes any congestion detour.  ``pair`` is the
    layer-pair index on ``tier``'s metal stack (0 = M1/M2).  ``shared``
    marks an MLS trunk edge running on the *other* tier's metal.
    """

    parent: int
    child: int
    length: float
    tier: int
    pair: int
    via_hops: int = 0
    n_f2f: int = 0
    shared: bool = False
    overflowed: bool = False
    #: Home-tier lower-metal escape stubs (um, total both ends) a
    #: shared edge needs to reach its F2F pads.
    escape_um: float = 0.0

    def __reduce__(self):
        return (RouteEdge, (self.parent, self.child, self.length,
                            self.tier, self.pair, self.via_hops, self.n_f2f,
                            self.shared, self.overflowed, self.escape_um))


class RouteTree:
    """The routed topology of one net."""

    __slots__ = ("net_name", "nodes", "edges")

    def __init__(self, net_name: str):
        self.net_name = net_name
        self.nodes: list[RouteNode] = []
        self.edges: list[RouteEdge] = []

    def __reduce__(self):
        return (_restore_tree, (self.net_name, self.nodes, self.edges))

    def add_node(self, x: float, y: float, tier: int,
                 pin: Pin | None = None) -> RouteNode:
        node = RouteNode(len(self.nodes), x, y, tier, pin)
        self.nodes.append(node)
        return node

    def add_edge(self, edge: RouteEdge) -> None:
        if not (0 <= edge.parent < len(self.nodes)
                and 0 <= edge.child < len(self.nodes)):
            raise RoutingError(
                f"net {self.net_name}: edge references unknown node")
        self.edges.append(edge)

    @property
    def root(self) -> RouteNode:
        if not self.nodes:
            raise RoutingError(f"net {self.net_name} has an empty tree")
        return self.nodes[0]

    def sink_nodes(self) -> list[RouteNode]:
        return [n for n in self.nodes[1:] if n.pin is not None]

    def wirelength(self) -> float:
        """Total routed wire length in um (vias excluded)."""
        return sum(e.length for e in self.edges)

    def f2f_count(self) -> int:
        return sum(e.n_f2f for e in self.edges)

    def num_shared_edges(self) -> int:
        return sum(1 for e in self.edges if e.shared)

    def has_overflow(self) -> bool:
        return any(e.overflowed for e in self.edges)

    def layers_used(self, stacks) -> dict[int, tuple[int, int]]:
        """Per tier: (lowest, highest) metal index touched by wires.

        Produces the Table I usage strings, e.g. ``{0: (1, 4)}`` for
        "M1-4(bot)".  ``stacks`` maps tier -> MetalStack.
        """
        spans: dict[int, tuple[int, int]] = {}
        for edge in self.edges:
            pairs = stacks[edge.tier].pairs()
            lo_layer, hi_layer = pairs[edge.pair]
            lo, hi = lo_layer.index, hi_layer.index
            if edge.tier in spans:
                cur_lo, cur_hi = spans[edge.tier]
                spans[edge.tier] = (min(cur_lo, lo), max(cur_hi, hi))
            else:
                spans[edge.tier] = (lo, hi)
        return spans

    def usage_string(self, stacks, home_tier: int) -> str:
        """Render like the paper: ``M1-6(bot)+M5-6(top)``."""
        spans = self.layers_used(stacks)
        parts = []
        for tier in sorted(spans):
            lo, hi = spans[tier]
            where = "bot" if tier == 0 else "top"
            parts.append(f"{stacks[tier].describe_span(lo, hi)}({where})")
        return "+".join(parts) if parts else "unrouted"

    def validate(self) -> None:
        """Tree sanity: connected, acyclic, rooted at node 0."""
        if not self.nodes:
            raise RoutingError(f"net {self.net_name}: empty tree")
        seen = {0}
        for edge in self.edges:
            if edge.child in seen:
                raise RoutingError(
                    f"net {self.net_name}: node {edge.child} has two parents")
            seen.add(edge.child)
        if len(seen) != len(self.nodes):
            raise RoutingError(
                f"net {self.net_name}: tree is disconnected "
                f"({len(seen)}/{len(self.nodes)} reachable)")


def _restore_tree(net_name: str, nodes: list[RouteNode],
                  edges: list[RouteEdge]) -> RouteTree:
    """Pickle helper: a :class:`RouteTree` from its three slots."""
    tree = RouteTree(net_name)
    tree.nodes = nodes
    tree.edges = edges
    return tree
