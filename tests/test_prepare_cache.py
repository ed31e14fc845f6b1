"""Shared-prepare and snapshot tests.

A table compares selectors on one prepared design, so
``run_benchmark_flows`` prepares it once per call: of the selectors
that miss the report memo, the first flows the design it built, every
later one its own unpickled copy, and flows on either agree bit for
bit.  The pickle dies with the call, and a one-selector call (what
``repro flow`` makes) pickles nothing.  A call given an artifact store
uses only the store: it neither reads nor fills the report memo.
"""

from __future__ import annotations

import json
import pickle
import weakref
from types import SimpleNamespace

import pytest

import repro.harness.tables as tables
from repro import FlowConfig, run_flow
from repro.core.flow import prepare_design
from repro.harness.designs import get_benchmark
from repro.harness.tables import (clear_flow_cache, flow_comparison_rows,
                                  run_benchmark_flow, run_benchmark_flows)
from repro.mls import route_with_mls
from repro.netlist.generators import MaeriConfig, generate_maeri
from repro.obs import metrics, trace
from repro.route import GlobalRouter
from repro.service import ArtifactStore, flow_key, prepare_stage_keys
from repro.service.stages import report_digest, run_flow_stored
from repro.snapshot import dumps_snapshot, loads_snapshot
from repro.timing import run_sta

from tests.conftest import TEST_SEED, build_small_design
from tests.golden_util import netlist_digest, placement_digest

#: Cheap selectors on MAERI-16; "random" routes MLS nets on its copy.
SELECTORS = ("none", "sota", "random")


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


def _tiny_factory(libraries, seed):
    return generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                          libraries, seed)


def _fast_config(**kwargs) -> FlowConfig:
    defaults = dict(selector="oracle", target_freq_mhz=1500.0,
                    num_paths=80, num_labeled=40, pdn=False)
    defaults.update(kwargs)
    return FlowConfig(**defaults)


def _given(design):
    """A prepare function that hands run_flow an existing *design*."""
    return lambda factory, tech, seed, config: design


def _digests(design) -> tuple[str, str]:
    return netlist_digest(design.netlist), placement_digest(design)


@pytest.fixture(scope="module")
def shared_call():
    """One cold ``flow_comparison_rows`` call over :data:`SELECTORS`
    with the harness's prepare, pickle and unpickle counted, then each
    selector again as a traced one-selector call."""
    spec = get_benchmark("maeri16_hetero")
    built, copies, pickles = [], [], []

    def counted_prepare(*args):
        design = prepare_design(*args)
        built.append((design, _digests(design)))
        return design

    def counted_dumps(obj):
        blob = dumps_snapshot(obj)
        pickles.append(len(blob))
        return blob

    def counted_loads(blob):
        design = loads_snapshot(blob)
        copies.append((design, _digests(design)))
        return design

    clear_flow_cache()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tables, "prepare_design", counted_prepare)
        mp.setattr(tables, "dumps_snapshot", counted_dumps)
        mp.setattr(tables, "loads_snapshot", counted_loads)
        rows = flow_comparison_rows("maeri16_hetero", SELECTORS)
        # Memo hits: the reports the rows came from.
        reports = run_benchmark_flows(spec, SELECTORS)
    clear_flow_cache()
    trace.enable()
    trace.reset()
    try:
        one_shot = {sel: run_benchmark_flow(spec, sel).result_row()
                    for sel in SELECTORS}
        span_names = {rec["name"] for rec in trace.records}
    finally:
        trace.disable()
        trace.reset()
        clear_flow_cache()
    return SimpleNamespace(built=built, copies=copies, pickles=pickles,
                           rows=rows, reports=reports, one_shot=one_shot,
                           span_names=span_names)


class _Design:
    """A picklable stand-in for a prepared design."""

    def __init__(self, seed: int):
        self.seed = seed


class _Blob:
    """A weakly referenceable stand-in for a pickle."""

    def __init__(self, data: bytes):
        self.data = data

    def __len__(self) -> int:
        return len(self.data)


@pytest.fixture()
def stubbed(monkeypatch):
    """The harness with a stub prepare and flow, recording every
    prepare seed and every pickle (as weak references)."""
    calls = SimpleNamespace(prepared=[], blobs=[], copies=0)

    def prepare(factory, tech, seed, config):
        calls.prepared.append(seed)
        return _Design(seed)

    def dumps(obj):
        blob = _Blob(pickle.dumps(obj))
        calls.blobs.append(weakref.ref(blob))
        return blob

    def loads(blob):
        calls.copies += 1
        return pickle.loads(blob.data)

    def flow(factory, tech, seed, config, prepare):
        return SimpleNamespace(design=prepare(factory, tech, seed, config))

    monkeypatch.setattr(tables, "prepare_design", prepare)
    monkeypatch.setattr(tables, "dumps_snapshot", dumps)
    monkeypatch.setattr(tables, "loads_snapshot", loads)
    monkeypatch.setattr(tables, "run_flow", flow)
    clear_flow_cache()
    yield calls
    clear_flow_cache()


class TestPrepareCache:
    """The shared prepare of one multi-selector call."""

    def test_hit_returns_equal_but_distinct_designs(self, shared_call):
        """Three memo misses: one prepare, one pickle, two copies.  The
        first selector flows the design it built, each later one its
        own copy: distinct objects, equal in content."""
        assert len(shared_call.built) == 1
        assert len(shared_call.pickles) == 1
        assert len(shared_call.copies) == 2
        built, built_digests = shared_call.built[0]
        designs = [shared_call.reports[sel].design for sel in SELECTORS]
        assert designs[0] is built
        assert [d for d, _ in shared_call.copies] == designs[1:]
        assert len({id(d) for d in designs}) == 3
        assert designs[1].netlist is not designs[2].netlist
        for _design, digests in shared_call.copies:
            assert digests == built_digests

    def test_zero_capacity_miss_returns_design(self, stubbed):
        """With one memo miss there is nothing to share: the call flows
        the design it built and pickles nothing."""
        spec = get_benchmark("maeri16_hetero")
        first = run_benchmark_flows(spec, ("none",), seed=TEST_SEED)
        both = run_benchmark_flows(spec, ("none", "sota"), seed=TEST_SEED)
        assert both["none"] is first["none"]
        assert stubbed.prepared == [TEST_SEED, TEST_SEED]
        assert stubbed.blobs == [] and stubbed.copies == 0

    def test_blob_dies_with_the_call(self, stubbed):
        """The pickle is the call's own: nothing holds it once the call
        returns."""
        spec = get_benchmark("maeri16_hetero")
        reports = run_benchmark_flows(spec, ("none", "sota", "gnn"),
                                      seed=TEST_SEED)
        assert stubbed.prepared == [TEST_SEED]
        assert stubbed.copies == 2
        assert len(stubbed.blobs) == 1
        assert stubbed.blobs[0]() is None
        assert [r.design.seed for r in reports.values()] == [TEST_SEED] * 3

    def test_matches_uncached_prepare(self, hetero_tech):
        """A copy of a prepared design routes, times and flows exactly
        like a from-scratch prepare."""
        cfg = _fast_config()
        built = prepare_design(_tiny_factory, hetero_tech, TEST_SEED, cfg)
        copy = loads_snapshot(dumps_snapshot(built))
        direct = prepare_design(_tiny_factory, hetero_tech, TEST_SEED, cfg)
        assert copy.netlist.stats() == direct.netlist.stats()
        route_with_mls(copy, set())
        route_with_mls(direct, set())
        assert run_sta(copy).summary() == run_sta(direct).summary()
        copied, plain = (
            run_flow(_tiny_factory, hetero_tech, TEST_SEED, cfg,
                     prepare=prepare)
            for prepare in (_given(loads_snapshot(dumps_snapshot(built))),
                            prepare_design))
        assert copied.result_row() == plain.result_row()
        assert report_digest(copied) == report_digest(plain)

    def test_seed_misses_cache(self, stubbed):
        """Each seed prepares its own design: another seed's call
        shares neither reports nor a pickle with the first."""
        spec = get_benchmark("maeri16_hetero")
        a = run_benchmark_flows(spec, ("none", "sota"), seed=TEST_SEED)
        b = run_benchmark_flows(spec, ("none", "sota"), seed=TEST_SEED + 1)
        assert stubbed.prepared == [TEST_SEED, TEST_SEED + 1]
        assert len(stubbed.blobs) == 2
        assert {r.design.seed for r in b.values()} == {TEST_SEED + 1}
        assert all(a[sel] is not b[sel] for sel in a)


class TestStoreCallsSkipTheMemo:
    def test_store_call_writes_after_a_memo_hit(self, tmp_path):
        """A flow already in the memo is still computed into a store,
        and a store call leaves the memo as it found it."""
        spec = get_benchmark("maeri16_hetero")
        config = spec.flow_config("none")
        key = flow_key(spec.factory, spec.tech(), TEST_SEED, config)
        clear_flow_cache()
        try:
            stored = run_benchmark_flow(spec, "none", seed=TEST_SEED,
                                        store=ArtifactStore(tmp_path / "a"))
            assert tables._FLOW_CACHE == {}
            plain = run_benchmark_flow(spec, "none", seed=TEST_SEED)
            assert list(tables._FLOW_CACHE.values()) == [plain]
            store = ArtifactStore(tmp_path / "b")
            before = metrics.counter("service.flow_computes")
            again = run_benchmark_flow(spec, "none", seed=TEST_SEED,
                                       store=store)
            assert metrics.counter("service.flow_computes") == before + 1
            assert store.object_path(key).exists()
            assert again is not plain
            assert list(tables._FLOW_CACHE.values()) == [plain]
            assert report_digest(again) == report_digest(plain) \
                == report_digest(stored)
        finally:
            clear_flow_cache()


class TestGoldenDeterminism:
    def test_flow_row_byte_identical(self, hetero_tech):
        """FlowReport.row() is reproducible bit-for-bit across two runs
        with the same int seed (runtime_min excluded: it is
        wall-clock)."""
        cfg = _fast_config()
        rows = []
        for _ in range(2):
            report = run_flow(_tiny_factory, hetero_tech, TEST_SEED, cfg)
            rows.append(json.dumps(report.result_row(), sort_keys=True))
        assert rows[0] == rows[1]


class TestWhoSharesPrepares:
    """Only a call with several memo misses shares a prepare."""

    def test_one_shot_flow_pickles_nothing(self, shared_call):
        """``repro flow``'s one-selector call prepares with plain
        prepare_design: no pickle span, no copy span."""
        assert "flow.prepare" in shared_call.span_names
        assert "prepare.pickle" not in shared_call.span_names
        assert "prepare.copy" not in shared_call.span_names

    def test_multi_flow_caller_prepares_once(self, shared_call):
        """A table builder's rows over one shared prepare equal the
        one-selector rows."""
        assert len(shared_call.built) == 1
        for sel in SELECTORS:
            row = dict(shared_call.rows[sel])
            del row["runtime_min"]
            assert row == shared_call.one_shot[sel], sel


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
        cfg = _fast_config(selector="none")
        built = prepare_design(_tiny_factory, hetero_tech, TEST_SEED, cfg)
        blob = dumps_snapshot(built)
        cold_store = ArtifactStore(tmp_path / "cold")
        prepared_store = ArtifactStore(tmp_path / "prepared")
        prepared_store.put(
            prepare_stage_keys(_tiny_factory, hetero_tech, TEST_SEED,
                               cfg).prepared, built)
        runs = [
            ("flow.runs", lambda: run_flow(
                _tiny_factory, hetero_tech, TEST_SEED, cfg)),
            ("flow.runs", lambda: run_flow(
                _tiny_factory, hetero_tech, TEST_SEED, cfg,
                prepare=lambda *_: loads_snapshot(blob))),
            ("service.flow_computes", lambda: run_flow_stored(
                _tiny_factory, hetero_tech, TEST_SEED, cfg,
                cold_store)[0]),
            ("service.prepare_design_hits", lambda: run_flow_stored(
                _tiny_factory, hetero_tech, TEST_SEED, cfg,
                prepared_store)[0]),
        ]
        for counter, run in runs:
            before = metrics.counter(counter)
            report, records = self._traced(run)
            assert metrics.counter(counter) == before + 1, counter
            stages = report.stage_runtime_s
            assert stages["flow.prepare"] > 0, counter
            assert report.runtime_s >= sum(stages.values()), counter
            flow = [r for r in records if r["name"] == "flow"]
            prepare = [r for r in records if r["name"] == "flow.prepare"]
            assert len(flow) == 1 and len(prepare) == 1, counter
            assert prepare[0]["parent"] == flow[0]["id"], counter
