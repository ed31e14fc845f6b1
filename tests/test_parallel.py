"""Equivalence suite for the process-pool engine.

The contract under test: every parallelized hot loop — the what-if
oracle, the die-test fault simulation, the dataset build and the
wavefront global route — returns results *identical* to its serial
twin under the same seeds, for any worker count.  Plus unit coverage
of the pool plumbing itself and the prepare-design memo cache.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro import FlowConfig, run_flow
from repro.core.flow import (clear_prepare_cache, prepare_design,
                             prepare_design_cached)
from repro.core.pathset import build_dataset
from repro.dft.fault_sim import simulate_faults
from repro.dft.faults import build_fault_universe
from repro.dft.mls_dft import die_test_fault_sim, untestable_fault_fraction
from repro.mls import route_with_mls
from repro.mls.oracle import candidate_nets, oracle_labels, oracle_select
from repro.netlist.generators import MaeriConfig, generate_maeri
from repro.parallel import (ParallelConfig, SnapshotPool, chunked,
                            dumps_snapshot, loads_snapshot, snapshot_map)
from repro.route import GlobalRouter
from repro.rng import SeedBundle, stream
from repro.timing import run_sta

from tests.conftest import TEST_SEED, build_small_design

#: Fan out over 4 workers; min_items low enough that the small test
#: fabric's workloads actually hit the pool.
POOL4 = ParallelConfig(workers=4, min_items=8)


@pytest.fixture(scope="module")
def probe_setup(hetero_tech):
    """Routed 16PE design with its live router (read-only per test)."""
    design = build_small_design(hetero_tech, routed=False)
    router = GlobalRouter(design)
    routing = router.route_all()
    return design, router, routing


@pytest.fixture(scope="module")
def mls_design(hetero_tech):
    """A design routed with the oracle's MLS set committed."""
    design = build_small_design(hetero_tech, routed=False)
    router = GlobalRouter(design)
    routing = router.route_all()
    picked = oracle_select(design, router, routing)
    route_with_mls(design, picked)
    return design


# -- pool plumbing -----------------------------------------------------------

class TestChunked:
    def test_exact_split(self):
        assert chunked([1, 2, 3, 4], 2) == [[1, 2], [3, 4]]

    def test_remainder_chunk(self):
        assert chunked(list(range(5)), 2) == [[0, 1], [2, 3], [4]]

    def test_single_chunk_when_size_exceeds(self):
        assert chunked([1, 2], 10) == [[1, 2]]

    def test_empty(self):
        assert chunked([], 3) == []

    def test_bad_size(self):
        with pytest.raises(ValueError, match="chunk size"):
            chunked([1], 0)


class TestParallelConfig:
    @pytest.mark.parametrize("kwargs", [
        {"workers": 0}, {"workers": -2}, {"chunk_size": 0},
        {"min_items": -1}, {"waves": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ParallelConfig(**kwargs)

    def test_default_is_serial(self):
        cfg = ParallelConfig()
        assert not cfg.enabled
        assert not cfg.should_parallelize(10_000)

    def test_small_workloads_stay_serial(self):
        cfg = ParallelConfig(workers=4, min_items=64)
        assert not cfg.should_parallelize(63)
        assert cfg.should_parallelize(64)

    def test_explicit_chunk_size_wins(self):
        cfg = ParallelConfig(workers=4, chunk_size=7)
        assert cfg.resolve_chunk_size(1000) == 7

    def test_auto_chunk_size_gives_waves_per_worker(self):
        cfg = ParallelConfig(workers=4, waves=4)
        n = 1600
        size = cfg.resolve_chunk_size(n)
        assert math.ceil(n / size) == 16    # workers * waves chunks

    def test_auto_chunk_size_never_zero(self):
        cfg = ParallelConfig(workers=8, waves=4)
        assert cfg.resolve_chunk_size(1) == 1

    def test_auto_factory(self):
        cfg = ParallelConfig.auto()
        assert cfg.workers >= 1


def _scale_chunk(state, chunk):
    return [state * item for item in chunk]


def _explode_chunk(state, chunk):
    for item in chunk:
        if item == 13:
            raise ValueError("unlucky item")
    return list(chunk)


def _mutate_chunk(state, chunk):
    state.append(len(chunk))
    return list(chunk)


class TestSnapshotMap:
    def test_matches_serial_and_preserves_order(self):
        items = list(range(100))
        want = [3 * x for x in items]
        serial = snapshot_map(_scale_chunk, items, snapshot=3,
                              config=ParallelConfig())
        fanout = snapshot_map(_scale_chunk, items, snapshot=3,
                              config=ParallelConfig(workers=4, min_items=4,
                                                    chunk_size=1))
        assert serial == want
        assert fanout == want

    def test_empty_items(self):
        assert snapshot_map(_scale_chunk, [], snapshot=3,
                            config=POOL4) == []

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="unlucky"):
            snapshot_map(_explode_chunk, range(20), snapshot=None,
                         config=ParallelConfig(workers=2, min_items=2))

    def test_bad_start_method_raises(self):
        cfg = ParallelConfig(workers=2, min_items=1,
                             start_method="teleport")
        with pytest.raises(ValueError):
            snapshot_map(_scale_chunk, range(10), snapshot=1, config=cfg)

    def test_serial_path_uses_caller_snapshot(self):
        # Documented semantics: below min_items the fn runs in-process
        # against the original object (no pickling round-trip).
        sink: list[int] = []
        snapshot_map(_mutate_chunk, range(5), snapshot=sink,
                     config=ParallelConfig(workers=4, min_items=100))
        assert sink   # mutated in place -> serial path taken

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


def _scale_extra_chunk(state, extra, chunk):
    return [state * item + extra for item in chunk]


def _mutate_extra_chunk(state, extra, chunk):
    state.append(extra)
    return list(chunk)


class TestSnapshotPool:
    def test_map_matches_serial_and_preserves_order(self):
        items = list(range(40))
        with SnapshotPool(3, ParallelConfig(workers=4, min_items=2,
                                            chunk_size=3)) as pool:
            assert pool.map(_scale_extra_chunk, items, extra=7) == \
                [3 * x + 7 for x in items]

    def test_extra_changes_per_call(self):
        with SnapshotPool(2, ParallelConfig(workers=2,
                                            min_items=2)) as pool:
            assert pool.map(_scale_extra_chunk, [1, 2], extra=0) == [2, 4]
            assert pool.map(_scale_extra_chunk, [1, 2], extra=10) == \
                [12, 14]

    def test_empty_items(self):
        with SnapshotPool(1, POOL4) as pool:
            assert pool.map(_scale_extra_chunk, [], extra=0) == []

    def test_disabled_config_runs_serially_on_caller_object(self):
        sink: list[int] = []
        with SnapshotPool(sink, ParallelConfig(workers=1)) as pool:
            pool.map(_mutate_extra_chunk, range(4), extra="tag")
        assert sink  # mutated in place -> no pool was used

    def test_broken_pool_degrades_permanently_to_serial(self, monkeypatch):
        import repro.parallel.pool as pool_mod

        class Boom:
            def __init__(self, *args, **kwargs):
                raise OSError("no pool for you")

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", Boom)
        sink: list[int] = []
        with SnapshotPool(sink, ParallelConfig(workers=4, min_items=2,
                                               chunk_size=8)) as pool:
            with pytest.warns(RuntimeWarning, match="pool unavailable"):
                assert pool.map(_mutate_extra_chunk, [1, 2, 3],
                                extra="a") == [1, 2, 3]
            # Second map: already degraded, no new warning machinery —
            # still serial against the caller's object.
            assert pool.map(_mutate_extra_chunk, [4], extra="b") == [4]
        assert sink == ["a", "b"]

    def test_close_releases_fork_slot(self):
        import repro.parallel.pool as pool_mod
        pool = SnapshotPool(5, ParallelConfig(workers=2, min_items=2))
        assert pool.map(_scale_extra_chunk, [1, 2], extra=0) == [5, 10]
        if pool._owns_fork_slot:
            assert pool_mod._FORK_SNAPSHOT is not None
        pool.close()
        assert pool_mod._FORK_SNAPSHOT is None


# -- hot-loop equivalence ----------------------------------------------------

class TestOracleEquivalence:
    def test_labels_identical_1_vs_4_workers(self, probe_setup):
        design, router, routing = probe_setup
        serial = oracle_labels(design, router, routing)
        fanout = oracle_labels(design, router, routing, parallel=POOL4)
        assert serial == fanout

    def test_workers_1_config_matches_no_config(self, probe_setup):
        design, router, routing = probe_setup
        assert oracle_labels(design, router, routing,
                             parallel=ParallelConfig(workers=1)) == \
            oracle_labels(design, router, routing)

    def test_select_identical(self, probe_setup):
        design, router, routing = probe_setup
        assert oracle_select(design, router, routing) == \
            oracle_select(design, router, routing, parallel=POOL4)

    def test_spawn_start_method_identical(self, probe_setup):
        # Spawn ships the pickled snapshot instead of inheriting it
        # copy-on-write; results must not depend on the start method.
        design, router, routing = probe_setup
        nets = candidate_nets(design)[:40]
        serial = oracle_labels(design, router, routing, nets=nets)
        spawned = oracle_labels(
            design, router, routing, nets=nets,
            parallel=ParallelConfig(workers=2, min_items=8,
                                    start_method="spawn"))
        assert serial == spawned


class TestFaultSimEquivalence:
    def test_simulate_faults_identical(self, probe_setup):
        design, _router, _routing = probe_setup
        netlist = design.netlist
        universe = build_fault_universe(netlist)
        serial = simulate_faults(netlist, universe,
                                 stream("fsim", TEST_SEED), patterns=64)
        fanout = simulate_faults(netlist, universe,
                                 stream("fsim", TEST_SEED), patterns=64,
                                 parallel=POOL4)
        assert serial == fanout

    def test_max_faults_sampling_identical(self, probe_setup):
        design, _router, _routing = probe_setup
        netlist = design.netlist
        universe = build_fault_universe(netlist)
        serial = simulate_faults(netlist, universe,
                                 stream("fsamp", TEST_SEED), patterns=64,
                                 max_faults=1500)
        fanout = simulate_faults(netlist, universe,
                                 stream("fsamp", TEST_SEED), patterns=64,
                                 max_faults=1500, parallel=POOL4)
        assert serial == fanout

    def test_die_test_identical(self, mls_design):
        serial = die_test_fault_sim(mls_design, stream("die", TEST_SEED),
                                    patterns=64, with_dft=False)
        fanout = die_test_fault_sim(mls_design, stream("die", TEST_SEED),
                                    patterns=64, with_dft=False,
                                    parallel=POOL4)
        assert serial == fanout

    def test_untestable_fraction_identical(self, mls_design):
        # Two sims share one generator: the parallel path must advance
        # the caller's rng exactly as the serial one does.
        serial = untestable_fault_fraction(
            mls_design, stream("frac", TEST_SEED), patterns=64)
        fanout = untestable_fault_fraction(
            mls_design, stream("frac", TEST_SEED), patterns=64,
            parallel=POOL4)
        assert serial == fanout


def _graphs_equal(a, b) -> bool:
    if a.endpoint != b.endpoint or a.slack_ps != b.slack_ps:
        return False
    if a.net_names != b.net_names:
        return False
    if not np.array_equal(a.features, b.features):
        return False
    if not np.array_equal(a.decidable, b.decidable):
        return False
    if (a.labels is None) != (b.labels is None):
        return False
    return a.labels is None or np.array_equal(a.labels, b.labels)


class TestBuildDatasetEquivalence:
    def test_dataset_identical(self, probe_setup):
        design, router, routing = probe_setup
        report = run_sta(design)
        serial = build_dataset(design, router, routing, report,
                               num_paths=60, num_labeled=30)
        fanout = build_dataset(design, router, routing, report,
                               num_paths=60, num_labeled=30,
                               parallel=POOL4)
        assert len(serial.graphs) == len(fanout.graphs)
        assert all(_graphs_equal(x, y)
                   for x, y in zip(serial.graphs, fanout.graphs))
        assert len(serial.labeled_graphs) == len(fanout.labeled_graphs)
        assert all(_graphs_equal(x, y)
                   for x, y in zip(serial.labeled_graphs,
                                   fanout.labeled_graphs))
        assert serial.net_labels == fanout.net_labels
        assert np.array_equal(serial.extractor._mean,
                              fanout.extractor._mean)
        assert np.array_equal(serial.extractor._std,
                              fanout.extractor._std)


# -- prepare cache + golden determinism --------------------------------------

def _tiny_factory(libraries, seeds):
    return generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                          libraries, seeds)


def _fast_config(**kwargs) -> FlowConfig:
    defaults = dict(selector="oracle", target_freq_mhz=1500.0,
                    num_paths=80, num_labeled=40, pdn=False)
    defaults.update(kwargs)
    return FlowConfig(**defaults)


class TestPrepareCache:
    def test_hit_returns_equal_but_distinct_designs(self, hetero_tech):
        clear_prepare_cache()
        cfg = _fast_config()
        first = prepare_design_cached(_tiny_factory, hetero_tech,
                                      SeedBundle(TEST_SEED), cfg)
        second = prepare_design_cached(_tiny_factory, hetero_tech,
                                       SeedBundle(TEST_SEED), cfg)
        assert first is not second
        assert first.netlist is not second.netlist
        assert first.netlist.stats() == second.netlist.stats()
        assert dumps_snapshot(first) == dumps_snapshot(second)

    def test_matches_uncached_prepare(self, hetero_tech):
        # Routing + STA on the cached copy must land exactly where a
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


def _route_both_ways(tech, mls_nets, workers: int):
    """Route the same design serially and wavefront; return results."""
    serial_design = build_small_design(tech, routed=False)
    serial = GlobalRouter(serial_design).route_all(mls_nets=mls_nets)
    wave_design = build_small_design(tech, routed=False)
    wavefront = GlobalRouter(wave_design).route_all(
        mls_nets=mls_nets,
        parallel=ParallelConfig(workers=workers, min_items=2))
    return serial, wavefront


def _assert_routing_identical(serial, wavefront):
    assert list(serial.trees) == list(wavefront.trees)
    for name in serial.trees:
        assert serial.trees[name].edges == wavefront.trees[name].edges
    assert dumps_snapshot(serial.rc) == dumps_snapshot(wavefront.rc)
    for tier in range(len(serial.grid.usage)):
        for pair in range(serial.grid.num_pairs(tier)):
            assert np.array_equal(serial.grid.usage[tier][pair],
                                  wavefront.grid.usage[tier][pair])
    assert np.array_equal(serial.grid.f2f_usage,
                          wavefront.grid.f2f_usage)
    assert serial.stats() == wavefront.stats()


class TestWavefrontEquivalence:
    """Wavefront route_all is bit-identical to the serial schedule."""

    def test_workers_1_is_the_serial_path(self, hetero_tech):
        design = build_small_design(hetero_tech, routed=False)
        serial = GlobalRouter(design).route_all()
        design2 = build_small_design(hetero_tech, routed=False)
        one = GlobalRouter(design2).route_all(
            parallel=ParallelConfig(workers=1))
        _assert_routing_identical(serial, one)

    def test_wavefront_identical_4_workers(self, hetero_tech):
        serial, wavefront = _route_both_ways(hetero_tech, frozenset(), 4)
        _assert_routing_identical(serial, wavefront)

    @pytest.mark.slow
    def test_wavefront_identical_8_workers(self, hetero_tech):
        serial, wavefront = _route_both_ways(hetero_tech, frozenset(), 8)
        _assert_routing_identical(serial, wavefront)

    def test_mls_nets_force_serial_fallback_within_wave(self, hetero_tech):
        """MLS candidates break waves (serial fallback) yet the merged
        result — shared trunks, F2F pads, fallbacks — stays exact."""
        design = build_small_design(hetero_tech, routed=False)
        names = sorted(n.name for n in candidate_nets(design))
        mls = frozenset(names[::5])
        serial, wavefront = _route_both_ways(hetero_tech, mls, 4)
        assert serial.mls_applied_nets()  # scenario actually bites
        _assert_routing_identical(serial, wavefront)

    @pytest.mark.slow
    def test_flow_rows_byte_identical(self, hetero_tech):
        """Full FlowReport rows agree between serial and wavefront
        routing, MLS selection (sota) included."""
        rows = []
        for parallel in (ParallelConfig(),
                         ParallelConfig(workers=4, min_items=8)):
            clear_prepare_cache()
            cfg = FlowConfig(selector="sota", target_freq_mhz=1500.0,
                             pdn=False, parallel=parallel)
            report = run_flow(_tiny_factory, hetero_tech,
                              SeedBundle(TEST_SEED), cfg)
            assert report.requested_mls  # sota actually requested MLS
            row = report.result_row()
            rows.append(json.dumps(row, sort_keys=True))
        assert rows[0] == rows[1]


class TestSpeculativeBatching:
    """Multi-wave speculative batches replay conflicts exactly.

    The batch merge accepts speculatively-routed nets only when their
    footprint is untouched by earlier batch waves; everything else
    replays serially.  These tests force both outcomes and assert the
    result never drifts from the serial schedule.
    """

    def _route(self, tech, mls, parallel=None, batch_ms=None):
        from repro.route.router import RouteConfig
        design = build_small_design(tech, routed=False)
        cfg = RouteConfig() if batch_ms is None \
            else RouteConfig(batch_ms=batch_ms)
        router = GlobalRouter(design, cfg)
        return router.route_all(mls_nets=mls, parallel=parallel)

    def test_forced_conflicts_replay_to_serial_result(self, hetero_tech):
        """One giant batch (huge batch_ms) maximizes speculation, so
        later waves conflict with earlier ones and must replay; grid,
        trees and RC still match the serial route bit-for-bit."""
        from repro.obs import metrics
        serial = self._route(hetero_tech, frozenset())
        replayed0 = metrics.counter("route.replayed_nets")
        speculative0 = metrics.counter("route.speculative_nets")
        wavefront = self._route(
            hetero_tech, frozenset(),
            parallel=ParallelConfig(workers=4, min_items=2),
            batch_ms=10_000.0)
        assert metrics.counter("route.replayed_nets") > replayed0
        assert metrics.counter("route.speculative_nets") > speculative0
        _assert_routing_identical(serial, wavefront)

    def test_batching_disabled_matches_serial(self, hetero_tech):
        """batch_ms=0 degrades to one dispatch per wave (the old
        granularity) without changing any result."""
        serial = self._route(hetero_tech, frozenset())
        wavefront = self._route(
            hetero_tech, frozenset(),
            parallel=ParallelConfig(workers=4, min_items=2),
            batch_ms=0.0)
        _assert_routing_identical(serial, wavefront)

    def test_batches_cut_dispatch_count(self, hetero_tech):
        """Default batching needs far fewer pool dispatches than the
        one-dispatch-per-wave schedule it replaces.

        The 16PE fabric's waves are tiny, so the EWMA-adaptive batch
        sizing lands around 4x here; 2x is the robust floor.  The >=5x
        acceptance gate on MAERI-128 lives in bench_parallel_route.
        """
        from repro.obs import metrics
        d0, w0 = (metrics.counter("route.dispatches"),
                  metrics.counter("route.waves"))
        self._route(hetero_tech, frozenset(),
                    parallel=ParallelConfig(workers=4, min_items=2))
        dispatches = metrics.counter("route.dispatches") - d0
        waves = metrics.counter("route.waves") - w0
        assert dispatches > 0
        assert dispatches * 2 <= waves

    def test_mls_with_forced_conflicts(self, hetero_tech):
        """MLS singletons flush batches; conflict replay around them
        still reproduces the serial MLS routing exactly."""
        design = build_small_design(hetero_tech, routed=False)
        names = sorted(n.name for n in candidate_nets(design))
        mls = frozenset(names[::5])
        serial = self._route(hetero_tech, mls)
        wavefront = self._route(
            hetero_tech, mls,
            parallel=ParallelConfig(workers=4, min_items=2),
            batch_ms=10_000.0)
        assert serial.mls_applied_nets()
        _assert_routing_identical(serial, wavefront)


class TestGoldenDeterminism:
    def test_flow_row_byte_identical(self, hetero_tech):
        """FlowReport.row() is reproducible bit-for-bit across two runs
        with the same SeedBundle, through the prepare cache AND the
        worker fan-out (runtime_min excluded: it is wall-clock)."""
        clear_prepare_cache()
        cfg = _fast_config(parallel=ParallelConfig(workers=2, min_items=8))
        rows = []
        for _ in range(2):
            design = prepare_design_cached(_tiny_factory, hetero_tech,
                                           SeedBundle(TEST_SEED), cfg)
            report = run_flow(_tiny_factory, hetero_tech,
                              SeedBundle(TEST_SEED), cfg, design=design)
            row = report.result_row()
            rows.append(json.dumps(row, sort_keys=True))
        assert rows[0] == rows[1]
