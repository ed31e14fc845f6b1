"""Differential re-route equivalence: replaying a route is exact.

``GlobalRouter.route_all(previous=...)`` reuses every net whose MLS
flag is unchanged and whose gcell footprint no earlier changed net
touched.  The contract under test: through any chain of MLS sets the
result is bit-identical to a from-scratch ``route_all`` — trees,
parasitics, dict order, every congestion array and ``stats()`` — and
``IncrementalSta.update_routing`` patching only the changed nets
still equals a full STA.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mls import route_with_mls
from repro.mls.oracle import candidate_nets
from repro.obs import metrics
from repro.opt import insert_buffers
from repro.route import GlobalRouter, RouteConfig
from repro.timing import IncrementalSta, run_sta

from tests.conftest import build_small_design
from tests.golden_util import assert_routing_identical
from tests.mls_eco import apply_mls_incremental
from tests.test_timing_incremental import (assert_reports_identical,
                                           build_small_a7,
                                           probe_and_restore)


def mls_subset(design, percent: int, seed: int) -> frozenset:
    names = sorted(net.name for net in candidate_nets(design))
    rng = np.random.default_rng(seed)
    take = len(names) * percent // 100
    return frozenset(rng.choice(names, size=take, replace=False).tolist())


def from_scratch(design, mls_nets):
    return GlobalRouter(design).route_all(mls_nets=mls_nets)


@pytest.fixture(scope="module")
def maeri(hetero_tech):
    return build_small_design(hetero_tech, routed=False)


@pytest.fixture(scope="module")
def a7(hetero_tech):
    return build_small_a7(hetero_tech)


#: Chains of 1-3 MLS requests, each (percent of candidates, seed).
chains = st.lists(st.tuples(st.sampled_from([0, 3, 20, 60, 100]),
                            st.integers(0, 2**16)),
                  min_size=1, max_size=3)


class TestChainEquivalence:
    def _check_chain(self, design, chain) -> None:
        previous = GlobalRouter(design).route_all()
        for percent, seed in chain:
            mls = mls_subset(design, percent, seed)
            got = GlobalRouter(design).route_all(mls_nets=mls,
                                                 previous=previous)
            assert got.changed_nets is not None       # really differential
            assert_routing_identical(got, from_scratch(design, mls))
            changed = {name for name, tree in got.trees.items()
                       if tree.edges != previous.trees[name].edges}
            assert set(got.changed_nets) == changed
            previous = got

    @given(chain=chains)
    @settings(max_examples=6, deadline=None)
    def test_maeri16_chain(self, maeri, chain):
        self._check_chain(maeri, chain)

    @given(chain=chains)
    @settings(max_examples=4, deadline=None)
    def test_a7_chain(self, a7, chain):
        self._check_chain(a7, chain)

    def test_unchanged_request_reuses_every_net(self, maeri):
        previous = GlobalRouter(maeri).route_all()
        before = metrics.counter("route.nets_reused")
        got = GlobalRouter(maeri).route_all(previous=previous)
        assert got.changed_nets == ()
        assert metrics.counter("route.nets_reused") - before \
            == len(got.trees)
        assert all(got.trees[n] is previous.trees[n] for n in got.trees)
        assert_routing_identical(got, from_scratch(maeri, frozenset()))


class TestPreviousKinds:
    def test_probed_previous_stays_exact(self, hetero_tech):
        design = build_small_design(hetero_tech, routed=False)
        router = GlobalRouter(design)
        previous = router.route_all()
        probe_and_restore(router, previous, IncrementalSta(design),
                          candidate_nets(design)[:5])
        assert not previous.eco_pending
        mls = mls_subset(design, 20, 3)
        got = GlobalRouter(design).route_all(mls_nets=mls,
                                             previous=previous)
        assert got.changed_nets is not None
        assert_routing_identical(got, from_scratch(design, mls))

    def test_outstanding_eco_edit_falls_back(self, hetero_tech):
        design = build_small_design(hetero_tech, routed=False)
        router = GlobalRouter(design)
        previous = router.route_all()
        apply_mls_incremental(design, router, previous,
                              add={candidate_nets(design)[0].name})
        assert previous.eco_pending
        before = metrics.counter("route.diff_fallbacks")
        mls = mls_subset(design, 20, 5)
        got = GlobalRouter(design).route_all(mls_nets=mls,
                                             previous=previous)
        assert metrics.counter("route.diff_fallbacks") == before + 1
        assert got.changed_nets is None
        assert_routing_identical(got, from_scratch(design, mls))

    @pytest.mark.parametrize("mismatch", ["config", "design", "used grid"])
    def test_foreign_previous_falls_back(self, hetero_tech, maeri,
                                         mismatch):
        router = GlobalRouter(maeri)
        if mismatch == "config":
            previous = GlobalRouter(maeri, RouteConfig(gcell_um=4.0)) \
                .route_all()
        elif mismatch == "design":
            other = build_small_design(hetero_tech, routed=False)
            previous = GlobalRouter(other).route_all()
        else:
            previous = router.route_all()
        before = metrics.counter("route.diff_fallbacks")
        got = router.route_all(previous=previous)
        assert metrics.counter("route.diff_fallbacks") == before + 1
        assert got.changed_nets is None

    def test_netlist_edit_falls_back(self, hetero_tech):
        """Buffering after the route splits nets: their old trees no
        longer match their pins, so the route must start over."""
        design = build_small_design(hetero_tech, routed=False,
                                    buffered=False)
        previous = GlobalRouter(design).route_all()
        insert_buffers(design)
        got = GlobalRouter(design).route_all(previous=previous)
        assert got.changed_nets is None
        assert_routing_identical(got, from_scratch(design, frozenset()))

    def test_connectivity_edit_falls_back(self, hetero_tech):
        """Moving a sink onto another existing net keeps every instance
        and net count, but both nets' old trees no longer match their
        pins: the netlist's edit counter must refuse the replay."""
        design = build_small_design(hetero_tech, routed=False)
        previous = GlobalRouter(design).route_all()
        nets = design.netlist.signal_nets()
        donor = next(n for n in nets if len(n.sinks) == 2)
        taker = next(n for n in nets if n is not donor)
        sink = donor.sinks[-1]
        donor.detach(sink)
        taker.attach(sink)
        before = metrics.counter("route.diff_fallbacks")
        got = GlobalRouter(design).route_all(previous=previous)
        assert metrics.counter("route.diff_fallbacks") == before + 1
        assert got.changed_nets is None
        assert len(got.trees[donor.name].sink_nodes()) == 1
        assert_routing_identical(got, from_scratch(design, frozenset()))


@pytest.fixture()
def patched_nets(monkeypatch) -> list[list[str]]:
    """Records the net names of every IncrementalSta.update call."""
    calls: list[list[str]] = []
    real_update = IncrementalSta.update

    def spy(self, names):
        names = list(names)
        calls.append(names)
        return real_update(self, names)

    monkeypatch.setattr(IncrementalSta, "update", spy)
    return calls


class TestIncrementalStaFastPath:
    def test_changed_nets_patch_matches_full_sta(self, hetero_tech,
                                                 patched_nets):
        design = build_small_design(hetero_tech, routed=False)
        _, previous = route_with_mls(design, set())
        sta = IncrementalSta(design)
        for seed in (1, 2):
            _, routing = route_with_mls(design, mls_subset(design, 20, seed),
                                        previous=previous)
            report = sta.update_routing()
            assert patched_nets[-1] == list(routing.changed_nets)
            assert_reports_identical(report, run_sta(design))
            previous = routing

    def test_unsynced_sta_diffs_every_net(self, hetero_tech, patched_nets):
        design = build_small_design(hetero_tech, routed=False)
        _, baseline = route_with_mls(design, set())
        sta = IncrementalSta(design)
        # The STA never sees this route, so it is not synced to the
        # previous of the next one.
        _, skipped = route_with_mls(design, mls_subset(design, 20, 1),
                                    previous=baseline)
        route_with_mls(design, mls_subset(design, 20, 2), previous=skipped)
        report = sta.update_routing()
        assert [len(names) for names in patched_nets] \
            == [len(design.netlist.signal_nets())]
        assert_reports_identical(report, run_sta(design))

    def test_edit_since_sync_diffs_every_net(self, hetero_tech,
                                             patched_nets):
        """A reroute/restore the STA never saw leaves the previous
        clean for routing but no longer what the STA last synced to."""
        design = build_small_design(hetero_tech, routed=False)
        router, previous = route_with_mls(design, set())
        sta = IncrementalSta(design)
        net = candidate_nets(design)[0]
        tree, rc = previous.trees[net.name], previous.rc[net.name]
        router.reroute_net(previous, net, mls=True)
        sta.update([net.name])
        router.restore_net(previous, net, tree, rc)
        route_with_mls(design, mls_subset(design, 20, 2), previous=previous)
        report = sta.update_routing()
        assert len(patched_nets[-1]) == len(design.netlist.signal_nets())
        assert_reports_identical(report, run_sta(design))
