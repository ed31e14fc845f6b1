"""Prepare-cache and snapshot tests.

The prepare cache memoizes prepared designs as pickled snapshots: a
miss returns the design it built, every hit its own unpickled copy,
and flows on either agree bit for bit.  Only callers that run several
flows of one design use it; a one-shot flow pickles nothing.
"""

from __future__ import annotations

import json

import pytest

import repro.core.flow as flow_mod
from repro import FlowConfig, run_flow
from repro.core.flow import (clear_prepare_cache, prepare_design,
                             prepare_design_cached)
from repro.harness.designs import get_benchmark
from repro.harness.tables import (clear_flow_cache, flow_comparison_rows,
                                  run_benchmark_flow)
from repro.mls import route_with_mls
from repro.netlist.generators import MaeriConfig, generate_maeri
from repro.obs import metrics, trace
from repro.route import GlobalRouter
from repro.rng import SeedBundle
from repro.service import ArtifactStore, prepare_key
from repro.service.stages import report_digest, run_flow_stored
from repro.snapshot import dumps_snapshot, loads_snapshot
from repro.timing import run_sta

from tests.conftest import TEST_SEED, build_small_design
from tests.golden_util import netlist_digest, placement_digest


@pytest.fixture(scope="module")
def probe_setup(hetero_tech):
    """Routed 16PE design with its live router (read-only per test)."""
    design = build_small_design(hetero_tech, routed=False)
    router = GlobalRouter(design)
    routing = router.route_all()
    return design, router, routing


class TestSnapshot:
    def test_design_snapshot_roundtrip(self, probe_setup):
        # The deep pin<->net<->instance graph needs the raised
        # recursion limits; the round-trip must preserve the design.
        design, _router, routing = probe_setup
        copy_design, copy_routing = loads_snapshot(
            dumps_snapshot((design, routing)))
        assert copy_design is not design
        assert copy_design.netlist.stats() == design.netlist.stats()
        name = next(iter(routing.trees))
        assert copy_routing.tree(name).wirelength() == \
            routing.tree(name).wirelength()


def _tiny_factory(libraries, seeds):
    return generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                          libraries, seeds)


def _fast_config(**kwargs) -> FlowConfig:
    defaults = dict(selector="oracle", target_freq_mhz=1500.0,
                    num_paths=80, num_labeled=40, pdn=False)
    defaults.update(kwargs)
    return FlowConfig(**defaults)


def _given(design):
    """A prepare function that hands run_flow an existing *design*."""
    return lambda factory, tech, seeds, config: design


class TestPrepareCache:
    def test_hit_returns_equal_but_distinct_designs(self, hetero_tech):
        """A miss returns the design it built and every hit its own
        unpickled copy: equal in content, and they flow identically.

        Only two copies of one blob are compared by pickle bytes: the
        built design memoizes shared objects differently from a copy,
        so its pickle may differ slightly while its content does not.
        """
        clear_prepare_cache()
        cfg = _fast_config()
        first, second, third = (
            prepare_design_cached(_tiny_factory, hetero_tech,
                                  SeedBundle(TEST_SEED), cfg)
            for _ in range(3))
        assert first is not second and second is not third
        assert first.netlist is not second.netlist
        assert netlist_digest(first.netlist) \
            == netlist_digest(second.netlist)
        assert placement_digest(first) == placement_digest(second)
        assert dumps_snapshot(second) == dumps_snapshot(third)
        built, copied = (run_flow(_tiny_factory, hetero_tech,
                                  SeedBundle(TEST_SEED), cfg,
                                  prepare=_given(d))
                         for d in (first, second))
        assert built.result_row() == copied.result_row()
        assert report_digest(built) == report_digest(copied)

    def test_zero_capacity_miss_returns_design(self, hetero_tech,
                                               monkeypatch):
        """With no room in the cache a miss still returns the design it
        built, and keeps nothing."""
        import repro.core.flow as flow_mod
        clear_prepare_cache()
        monkeypatch.setattr(flow_mod, "PREPARE_CACHE_MAX_ENTRIES", 0)
        design = prepare_design_cached(_tiny_factory, hetero_tech,
                                       SeedBundle(TEST_SEED),
                                       _fast_config())
        assert design.placement is not None
        assert not flow_mod._PREPARE_CACHE

    def test_matches_uncached_prepare(self, hetero_tech):
        # Routing + STA on the cached design must land exactly where a
        # from-scratch prepare does.
        clear_prepare_cache()
        cfg = _fast_config()
        cached = prepare_design_cached(_tiny_factory, hetero_tech,
                                       SeedBundle(TEST_SEED), cfg)
        direct = prepare_design(_tiny_factory, hetero_tech,
                                SeedBundle(TEST_SEED), cfg)
        assert cached.netlist.stats() == direct.netlist.stats()
        route_with_mls(cached, set())
        route_with_mls(direct, set())
        assert run_sta(cached).summary() == run_sta(direct).summary()

    def test_seed_misses_cache(self, hetero_tech):
        clear_prepare_cache()
        cfg = _fast_config()
        a = prepare_design_cached(_tiny_factory, hetero_tech,
                                  SeedBundle(TEST_SEED), cfg)
        b = prepare_design_cached(_tiny_factory, hetero_tech,
                                  SeedBundle(TEST_SEED + 1), cfg)
        assert dumps_snapshot(a) != dumps_snapshot(b)


class TestGoldenDeterminism:
    def test_flow_row_byte_identical(self, hetero_tech):
        """FlowReport.row() is reproducible bit-for-bit across two runs
        with the same SeedBundle, through the prepare cache
        (runtime_min excluded: it is wall-clock)."""
        clear_prepare_cache()
        cfg = _fast_config()
        rows = []
        for _ in range(2):
            report = run_flow(_tiny_factory, hetero_tech,
                              SeedBundle(TEST_SEED), cfg,
                              prepare=prepare_design_cached)
            row = report.result_row()
            rows.append(json.dumps(row, sort_keys=True))
        assert rows[0] == rows[1]


class TestWhoSharesPrepares:
    """The LRU serves callers that run several flows of one design."""

    @pytest.fixture(autouse=True)
    def _fresh_caches(self):
        clear_prepare_cache()
        clear_flow_cache()
        yield
        clear_prepare_cache()
        clear_flow_cache()

    def test_one_shot_flow_pickles_nothing(self):
        """``repro flow``'s call prepares with plain prepare_design: no
        cache entry, no counted miss, no store span."""
        misses = metrics.counter("prepare.cache_misses")
        trace.enable()
        trace.reset()
        try:
            run_benchmark_flow(get_benchmark("maeri16_hetero"), "none",
                               seed=20250706, store=None)
            names = {rec["name"] for rec in trace.records}
        finally:
            trace.disable()
            trace.reset()
        assert not flow_mod._PREPARE_CACHE
        assert metrics.counter("prepare.cache_misses") == misses
        assert "flow.prepare" in names
        assert "prepare.cache_store" not in names

    def test_multi_flow_caller_prepares_once(self):
        selectors = ("none", "sota", "oracle")
        misses = metrics.counter("prepare.cache_misses")
        hits = metrics.counter("prepare.cache_hits")
        shared = flow_comparison_rows("maeri16_hetero", selectors)
        assert metrics.counter("prepare.cache_misses") - misses == 1
        assert metrics.counter("prepare.cache_hits") - hits == 2
        clear_flow_cache()
        spec = get_benchmark("maeri16_hetero")
        for sel in selectors:
            one_shot = run_benchmark_flow(spec, sel).result_row()
            row = dict(shared[sel])
            del row["runtime_min"]
            assert row == one_shot, sel


class TestPrepareIsAFlowStage:
    """run_flow calls its prepare inside the flow, so the report times
    what this call paid, whatever served the design."""

    @staticmethod
    def _traced(run):
        trace.enable()
        trace.reset()
        try:
            report = run()
            records = list(trace.records)
        finally:
            trace.disable()
            trace.reset()
        return report, records

    def test_every_prepare_is_timed_inside_the_flow(self, hetero_tech,
                                                    tmp_path):
        clear_prepare_cache()
        cfg = _fast_config(selector="none")

        def seeds():
            return SeedBundle(TEST_SEED)

        def cached():
            return run_flow(_tiny_factory, hetero_tech, seeds(), cfg,
                            prepare=prepare_design_cached)

        cold_store = ArtifactStore(tmp_path / "cold")
        prepared_store = ArtifactStore(tmp_path / "prepared")
        prepared_store.put(
            prepare_key(_tiny_factory, hetero_tech, seeds(), cfg),
            prepare_design(_tiny_factory, hetero_tech, seeds(), cfg))
        runs = [
            ("prepare.cache_misses", cached),
            ("prepare.cache_hits", cached),
            ("service.flow_computes", lambda: run_flow_stored(
                _tiny_factory, hetero_tech, seeds(), cfg, cold_store)[0]),
            ("service.prepare_design_hits", lambda: run_flow_stored(
                _tiny_factory, hetero_tech, seeds(), cfg,
                prepared_store)[0]),
        ]
        try:
            for counter, run in runs:
                before = metrics.counter(counter)
                report, records = self._traced(run)
                assert metrics.counter(counter) == before + 1, counter
                stages = report.stage_runtime_s
                assert stages["flow.prepare"] > 0, counter
                assert report.runtime_s >= sum(stages.values()), counter
                flow = [r for r in records if r["name"] == "flow"]
                prepare = [r for r in records
                           if r["name"] == "flow.prepare"]
                assert len(flow) == 1 and len(prepare) == 1, counter
                assert prepare[0]["parent"] == flow[0]["id"], counter
        finally:
            clear_prepare_cache()
