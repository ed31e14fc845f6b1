"""Equivalence suite for the process-pool engine.

The contract under test: every parallelized hot loop — the what-if
oracle, the die-test fault simulation and the dataset build — returns
results *identical* to its serial twin under the same seeds, for any
worker count, and so does a whole flow.  Plus unit coverage of the
pool plumbing itself and the prepare-design memo cache.
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
from repro.parallel import (ParallelConfig, chunked, dumps_snapshot,
                            loads_snapshot, snapshot_map)
from repro.route import GlobalRouter
from repro.rng import SeedBundle, stream
from repro.service.stages import report_digest
from repro.timing import run_sta

from tests.conftest import TEST_SEED, build_small_design
from tests.golden_util import netlist_digest, placement_digest

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

    def test_pool_start_failure_degrades_to_serial(self, monkeypatch):
        import repro.parallel.pool as pool_mod
        from repro.obs import metrics

        class Boom:
            def __init__(self, *args, **kwargs):
                raise OSError("no pool for you")

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", Boom)
        sink: list[int] = []
        before = metrics.counter("pool.degrade_events")
        with pytest.warns(RuntimeWarning,
                          match="pool unavailable") as caught:
            got = snapshot_map(_mutate_chunk, range(10), snapshot=sink,
                               config=ParallelConfig(workers=4,
                                                     min_items=2,
                                                     chunk_size=3))
        assert got == list(range(10))
        assert sink == [3, 3, 3, 1]   # every chunk ran on the caller's list
        assert len(caught) == 1
        assert metrics.counter("pool.degrade_events") == before + 1
        assert pool_mod._FORK_SNAPSHOT is None

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
                                  SeedBundle(TEST_SEED), cfg, design=d)
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


def _assert_routing_identical(got, want):
    """Trees, parasitics, dict order, every congestion array and
    ``stats()`` of two routing results agree bit for bit."""
    assert list(got.trees) == list(want.trees)
    for name in got.trees:
        assert got.trees[name].edges == want.trees[name].edges
    assert dumps_snapshot(got.rc) == dumps_snapshot(want.rc)
    for tier in range(len(got.grid.usage)):
        for pair in range(got.grid.num_pairs(tier)):
            assert np.array_equal(got.grid.usage[tier][pair],
                                  want.grid.usage[tier][pair])
    assert np.array_equal(got.grid.f2f_usage, want.grid.f2f_usage)
    assert got.stats() == want.stats()


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

    @pytest.mark.slow
    def test_flow_rows_byte_identical(self, hetero_tech):
        """Full FlowReport rows agree between one and four workers, with
        the oracle's what-if labels fanned out over the pool."""
        rows = []
        for parallel in (ParallelConfig(),
                         ParallelConfig(workers=4, min_items=8)):
            clear_prepare_cache()
            cfg = FlowConfig(selector="oracle", target_freq_mhz=1500.0,
                             pdn=False, parallel=parallel)
            report = run_flow(_tiny_factory, hetero_tech,
                              SeedBundle(TEST_SEED), cfg)
            assert report.requested_mls  # the oracle actually requested MLS
            row = report.result_row()
            rows.append(json.dumps(row, sort_keys=True))
        assert rows[0] == rows[1]
