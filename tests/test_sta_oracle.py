"""The CSR timing graph and STA kernel against the serial oracle.

``build_timing_graph`` writes the levelized edge arrays directly, and
``run_sta`` propagates them with numpy scatters.  On real designs —
MAERI-16, A7, a scanned design (SE/SI false paths) and a design after
MLS DFT insertion — both must equal ``tests/sta_oracle.py`` exactly:
pin numbering, topological order, serial edge order, delays, levels,
launch and capture points, and every arrival, required time, endpoint
slack and ``worst_pred`` tie-break.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dft import WIRE_BASED, apply_mls_dft, insert_scan
from repro.mls import route_with_mls, sota_select
from repro.opt import insert_buffers
from repro.timing import IncrementalSta, build_timing_graph, run_sta

from tests import sta_oracle as oracle
from tests.conftest import build_small_design
from tests.test_timing_incremental import (assert_reports_identical,
                                           build_small_a7)


def _scanned(tech):
    design = build_small_design(tech, routed=False, buffered=False)
    insert_scan(design)
    insert_buffers(design)
    route_with_mls(design, set())
    return design


def _after_dft(tech):
    design = _scanned(tech)
    router, routing = route_with_mls(design, set())
    router, routing = route_with_mls(design, sota_select(design, routing),
                                     previous=routing)
    apply_mls_dft(design, router, routing, WIRE_BASED)
    return design


@pytest.fixture(scope="module", params=["maeri16", "a7", "scanned", "dft"])
def design(request, hetero_tech, routed_small_design):
    build = {"maeri16": lambda t: routed_small_design,
             "a7": build_small_a7, "scanned": _scanned,
             "dft": _after_dft}[request.param]
    return build(hetero_tech)


def fanout_edges(graph, u: int) -> tuple[int, int]:
    """[lo, hi) serial edge ids leaving pin *u*."""
    r = graph.rank[u]
    return int(graph.out_ptr[r]), int(graph.out_ptr[r + 1])


def assert_graph_matches_oracle(graph, ref) -> None:
    assert all(a is b for a, b in zip(graph.pins, ref.pins))
    assert len(graph.pins) == len(ref.pins)
    assert graph.pin_index == ref.pin_index
    assert graph.topo.tolist() == ref.topo
    assert np.array_equal(graph.rank[graph.topo], np.arange(graph.n))
    flat = oracle.flatten(ref)
    for field in ("edge_src", "edge_dst", "edge_delay", "level",
                  "fwd_perm", "fwd_starts", "bwd_perm", "bwd_starts"):
        assert np.array_equal(getattr(graph, field), flat[field]), field
    assert graph.num_levels == flat["num_levels"]
    assert list(zip(graph.src_idx.tolist(), graph.src_launch.tolist())) \
        == ref.sources
    assert list(zip(graph.ep_idx.tolist(), graph.ep_setup.tolist())) \
        == ref.endpoints
    # CSR runs: a pin's fanout is contiguous and in list order; its
    # fanin is its arcs in ascending serial edge order.
    for u in range(graph.n):
        lo, hi = fanout_edges(graph, u)
        assert list(zip(graph.edge_dst[lo:hi].tolist(),
                        graph.edge_delay[lo:hi].tolist())) == ref.fanout[u]
        eids = graph.in_edges[graph.in_ptr[u]:graph.in_ptr[u + 1]]
        assert np.all(np.diff(eids) > 0)
        assert sorted(zip(graph.edge_src[eids].tolist(),
                          graph.edge_delay[eids].tolist())) \
            == sorted(ref.fanin[u])


class TestAgainstOracle:
    def test_graph_arrays(self, design):
        assert_graph_matches_oracle(build_timing_graph(design),
                                    oracle.build_list_graph(design))

    def test_report(self, design):
        assert_reports_identical(run_sta(design), oracle.serial_sta(design))

    def test_incremental_build(self, design):
        assert_reports_identical(IncrementalSta(design).report(),
                                 oracle.serial_sta(design))

    def test_scan_false_paths_present(self, design):
        graph = build_timing_graph(design)
        if "port:scan_enable" not in graph.pin_index:
            pytest.skip("design has no scan chain")
        se = graph.pin_index["port:scan_enable"]
        assert se not in graph.src_idx.tolist()
        lo, hi = fanout_edges(graph, se)
        assert lo == hi                     # SE fans out to no arc
