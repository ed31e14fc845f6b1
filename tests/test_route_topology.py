"""The batched route topology against the per-net oracle, exactly.

:func:`repro.route.steiner.build_route_topology` builds every net's
pin points, Prim MST parents, edge lengths, ordered L-path gcells,
footprint and the long-nets-first order in one array pass.  Each of
those must equal the scalar seed implementation in
``tests/route_oracle.py`` bit for bit: ``worst_pred``-style tie-breaks
(``argmin`` ties, the strict ``<``) and the L-path cell order decide
routes, so "close" is wrong.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError
from repro.obs import metrics
from repro.place.placement import Location
from repro.route import GlobalRouter, build_route_topology

from tests import route_oracle as oracle
from tests.conftest import build_small_design
from tests.test_timing_incremental import build_small_a7

GCELL, NX, NY = 5.0, 4, 3          # a 20 x 15 um die


class _Net:
    """Just what ``build_route_topology`` reads of a net."""

    def __init__(self, name: str, pins: list):
        self.name = name
        self.driver = pins[0] if pins else None
        self.sinks = pins[1:]

    def pins(self) -> list:
        return ([] if self.driver is None else [self.driver]) + self.sinks


class _Placement:
    def __init__(self, locations: dict):
        self.locations = locations

    def of_pin(self, pin) -> Location:
        return self.locations[pin]


def assert_matches_oracle(topo, nets, placement, gcell, nx, ny) -> None:
    """Every per-net field of *topo* equals the oracle's, exactly."""
    assert [net.name for net in topo.nets] == [net.name for net in nets]
    for row, net in enumerate(nets):
        points = oracle.build_route_points(net, placement)
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        lo, hi = int(topo.pin_ptr[row]), int(topo.pin_ptr[row + 1])
        assert hi - lo == len(points)
        assert np.array_equal(topo.x[lo:hi], xs)
        assert np.array_equal(topo.y[lo:hi], ys)
        assert topo.tier[lo:hi].tolist() == [p[2] for p in points]
        parents = oracle.mst_parents(xs, ys)
        assert topo.parent[lo:hi].tolist() == parents
        lengths = [0.0] + [abs(xs[parents[c]] - xs[c])
                           + abs(ys[parents[c]] - ys[c])
                           for c in range(1, len(points))]
        assert topo.length[lo:hi].tolist() == lengths
        cells, ptr = topo.edge_cells(row)
        want = oracle.edge_cells(xs, ys, parents, gcell, nx, ny)
        assert [cells[ptr[c]:ptr[c + 1]]
                for c in range(1, len(points))] == want
        assert ptr[1] == 0                  # the driver owns no cells
        footprint = oracle.footprint_gcells(xs, ys, parents, gcell, nx, ny)
        assert set(topo.footprint(row).tolist()) \
            == {ix * ny + iy for ix, iy in footprint}
    assert [topo.nets[r].name for r in topo.order.tolist()] \
        == oracle.long_nets_first(nets, placement)


# Coordinates on a half-gcell lattice force duplicate points, equal
# manhattan distances and cell-boundary hits; the range runs off both
# sides of the die to exercise the clamp.
_coord = st.one_of(st.integers(-4, 10).map(lambda v: v * 2.5),
                   st.floats(-12.0, 40.0, allow_nan=False))
_point = st.tuples(_coord, _coord, st.integers(0, 1))
_point_sets = st.lists(st.lists(_point, min_size=1, max_size=12),
                       min_size=1, max_size=8)


class TestRandomPointSets:
    @given(point_sets=_point_sets)
    @settings(max_examples=150, deadline=None)
    def test_batched_topology_equals_oracle(self, point_sets):
        locations = {}
        nets = []
        for k, points in enumerate(point_sets):
            pins = []
            for j, (x, y, tier) in enumerate(points):
                pin = (k, j)
                locations[pin] = Location(x, y, tier)
                pins.append(pin)
            nets.append(_Net(f"n{k % 3}_{k}", pins))
        placement = _Placement(locations)
        topo = build_route_topology(nets, placement, GCELL, NX, NY)
        assert_matches_oracle(topo, nets, placement, GCELL, NX, NY)

    def test_forced_ties(self):
        # Four pins at manhattan distance 5 from the driver, one
        # duplicate of the driver: argmin must take the first index.
        coords = [(5.0, 5.0), (10.0, 5.0), (5.0, 10.0), (0.0, 5.0),
                  (5.0, 0.0), (5.0, 5.0)]
        locations = {j: Location(x, y, 0) for j, (x, y) in enumerate(coords)}
        nets = [_Net("tie", list(range(len(coords))))]
        placement = _Placement(locations)
        topo = build_route_topology(nets, placement, GCELL, NX, NY)
        assert topo.parent.tolist() == [-1, 0, 0, 0, 0, 0]
        assert_matches_oracle(topo, nets, placement, GCELL, NX, NY)

    def test_driverless_net_rejected(self):
        net = _Net("floating", [])
        with pytest.raises(RoutingError, match="no driver"):
            build_route_topology([net], _Placement({}), GCELL, NX, NY)


@pytest.fixture(scope="module")
def a7(hetero_tech):
    return build_small_a7(hetero_tech)


class TestWholeDesigns:
    @pytest.mark.parametrize("family", ["maeri16", "a7"])
    def test_every_net_matches_oracle(self, family, routed_small_design,
                                      a7):
        design = routed_small_design if family == "maeri16" else a7
        router = GlobalRouter(design)
        topo = router.topology()
        grid = router.grid
        assert_matches_oracle(topo, design.netlist.signal_nets(),
                              design.placement, grid.gcell, grid.nx,
                              grid.ny)


class TestLifetime:
    def test_shared_by_routers_until_an_edit(self, hetero_tech):
        design = build_small_design(hetero_tech, routed=False)
        before = metrics.counter("route.topology_builds")
        GlobalRouter(design).route_all()
        topo = design.placement.route_topology
        GlobalRouter(design).route_all()
        assert design.placement.route_topology is topo
        assert metrics.counter("route.topology_builds") == before + 1
        net = design.netlist.signal_nets()[0]
        sink = net.sinks[0]
        net.detach(sink)
        net.attach(sink)                 # same structure, new edit count
        GlobalRouter(design).route_all()
        assert design.placement.route_topology is not topo
        assert metrics.counter("route.topology_builds") == before + 2

    def test_other_grid_geometry_rebuilds(self, hetero_tech):
        from repro.route import RouteConfig
        design = build_small_design(hetero_tech, routed=False)
        first = GlobalRouter(design).topology()
        other = GlobalRouter(design, RouteConfig(gcell_um=4.0)).topology()
        assert other is not first
        assert other.key[-3:] != first.key[-3:]

    def test_never_pickled(self, hetero_tech):
        design = build_small_design(hetero_tech, routed=False)
        cold = pickle.dumps(design.placement)
        GlobalRouter(design).route_all()
        assert design.placement.route_topology is not None
        with pytest.raises(TypeError, match="never pickled"):
            pickle.dumps(design.placement.route_topology)
        restored = pickle.loads(pickle.dumps(design))
        assert restored.placement.route_topology is None
        assert pickle.dumps(design.placement) == cold

    def test_stale_eco_routes_one_net(self, hetero_tech):
        """After a netlist edit, an ECO reroute computes only its own
        net and routes exactly as a fresh topology would."""
        design = build_small_design(hetero_tech, routed=False)
        router = GlobalRouter(design)
        result = router.route_all()
        net = next(n for n in design.netlist.signal_nets()
                   if len(n.sinks) >= 2)
        design.netlist.add_net("eco_spare")     # stale, same geometry
        before = metrics.counter("route.topology_builds")
        router.reroute_net(result, net, mls=False)
        assert metrics.counter("route.topology_builds") == before
        fresh = build_route_topology([net], design.placement,
                                     router.grid.gcell, router.grid.nx,
                                     router.grid.ny)
        tree = result.trees[net.name]
        assert [e.child for e in tree.edges] \
            == list(range(1, len(tree.nodes)))
        assert [e.parent for e in tree.edges] == fresh.parent[1:].tolist()
