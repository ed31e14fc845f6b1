"""Cold-vs-warm flow equivalence through the artifact store.

The flow-as-a-service warm path replaces computation with artifact
replay; these tests pin that the replacement is *behaviorally
invisible*, using the same cross-subsystem digests
(:mod:`tests.golden_util`) that lock the netlist-core refactor:

* a store-backed cold run produces digest-identical results to the
  plain (storeless) cold path — threading the store through the flow
  changes nothing;
* a warm run from a **fresh store handle** (simulating a new process
  over the same directory) replays the stored report bit-identically:
  netlist / placement / routing / STA digests and the end-to-end
  ``report_digest`` all match, with the generate / partition / place /
  buffer stages provably skipped (store hits, zero stage puts);
* stage-resume is sound — with only the *prepare-stage* artifacts on
  disk (report + prepared design deleted), the flow resumes from the
  placement artifact and still reproduces the cold digests exactly;
* prefix-shaped keys share placement across a frequency sweep;
* a report blob that passes its checksum but no longer unpickles (a
  store written by code with a class this code lacks) is a counted
  miss, and the report is recomputed.

Both design families run (small MAERI fabric + small A7 dual-core),
matching the golden-fixture families.
"""

from __future__ import annotations

import dataclasses
import sys
import types

import pytest

from repro.core.flow import FlowConfig, run_flow
from repro.netlist.generators import (A7Config, MaeriConfig,
                                      generate_a7_dual_core,
                                      generate_maeri)
from repro.obs import metrics
from repro.service import ArtifactStore, flow_key, prepare_stage_keys
from repro.service.stages import report_digest, run_flow_stored
from repro.service.store import write_artifact_bytes
from tests.golden_util import (netlist_digest, placement_digest,
                               routing_digest, sta_digest)

from tests.conftest import TEST_SEED


def _maeri_small(libraries, seed):
    return generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                          libraries, seed)


def _a7_small(libraries, seed):
    return generate_a7_dual_core(
        A7Config(word_width=8, stage_depth=2, cache_banks=1,
                 bus_width=4), libraries, seed)


FAMILIES = {
    "maeri": (_maeri_small, 1900.0),
    "a7": (_a7_small, 1000.0),
}

_PREPARE_KINDS = ("prepare.generate", "prepare.partition",
                  "prepare.place", "prepare.design")


def _config(freq: float) -> FlowConfig:
    return FlowConfig(selector="none", target_freq_mhz=freq)


def _digests(report) -> dict:
    return {
        "report": report_digest(report),
        "netlist": netlist_digest(report.design.netlist),
        "placement": placement_digest(report.design),
        "routing": routing_digest(report.design),
        "sta": sta_digest(report.final_sta),
    }


def _counters(*names) -> dict:
    return {n: metrics.counter(n) for n in names}


def _delta(before: dict) -> dict:
    return {n: metrics.counter(n) - v for n, v in before.items()}


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestColdWarmEquivalence:
    def test_cold_warm_and_resume_are_bit_identical(self, family,
                                                    tmp_path,
                                                    hetero_tech):
        factory, freq = FAMILIES[family]
        config = _config(freq)
        root = tmp_path / "store"

        # Plain cold path: no store anywhere near the flow.
        plain = run_flow(factory, hetero_tech, TEST_SEED,
                         config)
        golden = _digests(plain)

        # Store-backed cold run (fresh empty store).
        store = ArtifactStore(root)
        cold, cold_summary, cold_cached = run_flow_stored(
            factory, hetero_tech, TEST_SEED, config, store)
        assert not cold_cached
        assert _digests(cold) == golden
        assert cold_summary["report_digest"] == golden["report"]

        # Warm run: new handle over the same directory, as a fresh
        # process would see it.  Every prepare stage must be skipped.
        before = _counters("store.hits.flow.report",
                           *(f"store.puts.{k}" for k in _PREPARE_KINDS),
                           "service.flow_computes")
        warm_store = ArtifactStore(root)
        warm, warm_summary, warm_cached = run_flow_stored(
            factory, hetero_tech, TEST_SEED, config,
            warm_store)
        moved = _delta(before)
        assert warm_cached
        assert _digests(warm) == golden
        assert warm_summary == cold_summary
        assert moved["store.hits.flow.report"] == 1
        assert moved["service.flow_computes"] == 0
        for kind in _PREPARE_KINDS:
            assert moved[f"store.puts.{kind}"] == 0

        # Stage-resume: drop the report/summary/prepared artifacts,
        # keep generate/partition/place — the flow resumes from the
        # placement artifact and must land on the same digests.
        keys = prepare_stage_keys(factory, hetero_tech,
                                  TEST_SEED, config)
        resume_store = ArtifactStore(root)
        for blob in root.glob("objects/*/flow.*.bin"):
            blob.unlink()
        resume_store.object_path(keys.prepared).unlink()
        resume_store = ArtifactStore(root)   # re-scan pruned objects
        before = _counters("store.hits.prepare.place",
                           "service.flow_computes")
        resumed, resumed_summary, resumed_cached = run_flow_stored(
            factory, hetero_tech, TEST_SEED, config,
            resume_store)
        moved = _delta(before)
        assert not resumed_cached            # the flow itself re-ran
        assert moved["service.flow_computes"] == 1
        assert moved["store.hits.prepare.place"] == 1
        assert _digests(resumed) == golden
        assert resumed_summary["report_digest"] == golden["report"]


def test_frequency_sweep_shares_placement(tmp_path, hetero_tech):
    factory, freq = FAMILIES["maeri"]
    root = tmp_path / "store"
    store = ArtifactStore(root)
    run_flow_stored(factory, hetero_tech, TEST_SEED,
                    _config(freq), store)
    swept = dataclasses.replace(_config(freq),
                                target_freq_mhz=freq - 200.0)
    before = _counters("store.hits.prepare.place",
                       "store.puts.prepare.generate",
                       "store.puts.prepare.partition",
                       "store.puts.prepare.place")
    report, _summary, cached = run_flow_stored(
        factory, hetero_tech, TEST_SEED, swept,
        ArtifactStore(root))
    moved = _delta(before)
    assert not cached                        # different key, real run
    assert moved["store.hits.prepare.place"] == 1
    assert moved["store.puts.prepare.generate"] == 0
    assert moved["store.puts.prepare.partition"] == 0
    assert moved["store.puts.prepare.place"] == 0
    # Placement is genuinely shared: locations identical across the
    # sweep even though timing closed at a different clock.
    base = run_flow_stored(factory, hetero_tech, TEST_SEED,
                           _config(freq), ArtifactStore(root),
                           need_report=True)[0]
    assert placement_digest(report.design) == \
        placement_digest(base.design)
    assert report_digest(report) != report_digest(base)


def _undecodable_blob() -> bytes:
    """A blob with a valid checksum whose pickle names a module that
    cannot be imported — what a report pickled by code with a class
    this code no longer has looks like."""
    module = types.ModuleType("repro_removed_module")
    module.Removed = type("Removed", (), {"__module__": module.__name__})
    sys.modules[module.__name__] = module
    try:
        return write_artifact_bytes({"config": module.Removed()})
    finally:
        del sys.modules[module.__name__]


def test_undecodable_report_is_recomputed(tmp_path, hetero_tech):
    factory, freq = FAMILIES["maeri"]
    config = _config(freq)
    root = tmp_path / "store"
    cold, cold_summary, _ = run_flow_stored(
        factory, hetero_tech, TEST_SEED, config,
        ArtifactStore(root))
    fkey = flow_key(factory, hetero_tech, TEST_SEED, config)
    blob = _undecodable_blob()

    store = ArtifactStore(root)
    path = store.object_path(fkey)
    path.write_bytes(blob)
    before = _counters("store.corrupt")
    assert store.get(fkey) is None
    assert _delta(before)["store.corrupt"] == 1
    assert not path.exists()

    path.write_bytes(blob)
    before = _counters("store.corrupt", "service.flow_computes")
    report, summary, cached = run_flow_stored(
        factory, hetero_tech, TEST_SEED, config,
        ArtifactStore(root), need_report=True)
    moved = _delta(before)
    assert not cached
    assert moved["store.corrupt"] == 1
    assert moved["service.flow_computes"] == 1
    assert report_digest(report) == report_digest(cold)
    assert summary["report_digest"] == cold_summary["report_digest"]


class TestSeedPurity:
    def test_two_cold_stored_flows_agree(self, tmp_path):
        """Two cold MAERI-16 ``none`` flows with seed 7, each into its
        own fresh store, give one report digest: the content key names
        the seed, and the flow computes nothing else from it."""
        from repro.harness.designs import get_benchmark

        spec = get_benchmark("maeri16_hetero")
        config = spec.flow_config("none")
        digests = []
        for name in ("first", "second"):
            report, summary, cached = run_flow_stored(
                spec.factory, spec.tech(), 7, config,
                ArtifactStore(tmp_path / name))
            assert not cached
            assert summary["report_digest"] == report_digest(report)
            digests.append(summary["report_digest"])
        assert digests[0] == digests[1]
