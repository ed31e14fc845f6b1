"""Content-key derivation + artifact-store properties (hypothesis).

Locks the flow-as-a-service storage contract:

* key soundness — identical inputs collide onto one key; *any* single
  perturbation (seed, frequency, tech, scan config, factory parameter,
  any :class:`FlowConfig` field) changes it.  The perturbation table
  is exhaustiveness-checked against ``dataclasses.fields`` so a
  newly-added config field fails loudly until it is listed;
* keys follow the source: a verbatim copy of the package at another
  path derives the same keys, and a copy with one edited library
  constant (placer or trainer) moves every stage key;
* stage keys are prefix-shaped: no config field moves the place key,
  so frequency/scan sweeps share the placement artifact;
* a factory that cannot be named by content (a closure over an opaque
  object, a ``functools.partial``, a callable instance) is refused
  with ``TypeError``;
* blob round trips are bit-identical (pickle-bytes compare, plus the
  golden netlist digest on a real generated design);
* any single-byte corruption or truncation is detected, counted and
  demoted to a miss with the damaged file unlinked;
* interrupted writes leave no partial artifact;
* the LRU byte budget evicts oldest-access entries first, and two
  handles on one root see one store: the object tree is the index.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.flow import FlowConfig, TrainConfig
from repro.netlist.generators import MaeriConfig, generate_maeri
from repro.obs import metrics
from repro.service import (ArtifactCorruptError, ArtifactStore,
                           ContentKey, flow_key, prepare_stage_keys,
                           tech_digest)
from repro.service.store import (read_artifact_bytes,
                                 write_artifact_bytes)
from repro.snapshot import dumps_snapshot
from tests.golden_util import netlist_digest

from tests.conftest import TEST_SEED


def _maeri_factory(libraries, seed):
    return generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                          libraries, seed)


def _maeri_factory_wide(libraries, seed):
    return generate_maeri(MaeriConfig(pe_count=16, bandwidth=16),
                          libraries, seed)


def _same_name_factory(wide: bool):
    """Two factories with identical qualnames and identical co_code —
    bytecode references constants by index, so a literal-only edit
    (bandwidth 4 -> 8; both distinct from pe_count so the const
    tables keep the same shape) is invisible to a co_code hash.  The
    key names a factory by its file and first line instead."""
    if wide:
        def factory(libraries, seed):
            return generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                                  libraries, seed)
    else:
        def factory(libraries, seed):
            return generate_maeri(MaeriConfig(pe_count=16, bandwidth=4),
                                  libraries, seed)
    return factory


def _nested_literal_factory(wide: bool):
    """Same trap one level down: the differing literal lives in a
    *nested* code object stored in the outer factory's co_consts."""
    if wide:
        def factory(libraries, seed):
            def config():
                return MaeriConfig(pe_count=16, bandwidth=8)
            return generate_maeri(config(), libraries, seed)
    else:
        def factory(libraries, seed):
            def config():
                return MaeriConfig(pe_count=16, bandwidth=4)
            return generate_maeri(config(), libraries, seed)
    return factory


BASE_CONFIG = FlowConfig(selector="none", target_freq_mhz=1500.0)

#: field name -> perturbed value; each one must move the flow key.
_PERTURBATIONS = {
    "selector": "gnn",
    "target_freq_mhz": 1600.0,
    "num_paths": BASE_CONFIG.num_paths + 1,
    "num_labeled": BASE_CONFIG.num_labeled + 1,
    "with_scan": True,
    "dft_strategy": "wire-based",
    "train": TrainConfig(dgi_epochs=TrainConfig().dgi_epochs + 1),
    "pdn": False,
    "activity": BASE_CONFIG.activity + 0.01,
}


def _perturbed(field_name: str) -> tuple[FlowConfig, FlowConfig]:
    """(baseline, baseline with *field_name* perturbed)."""
    base_cfg = BASE_CONFIG
    if field_name == "dft_strategy":
        # FlowConfig validates dft_strategy => with_scan, so the
        # strategy perturbation is measured on a scanned baseline.
        base_cfg = dataclasses.replace(BASE_CONFIG, with_scan=True)
    return base_cfg, dataclasses.replace(
        base_cfg, **{field_name: _PERTURBATIONS[field_name]})


@pytest.fixture(scope="module")
def tech(hetero_tech):
    return hetero_tech


class TestKeyDerivation:
    def test_identical_inputs_collide(self, tech):
        """Two independently-built identical inputs -> one key."""
        from repro.design import TechSetup
        a = flow_key(_maeri_factory, tech, TEST_SEED, BASE_CONFIG)
        b = flow_key(_maeri_factory, TechSetup.build("16nm", "28nm", 6),
                     TEST_SEED,
                     FlowConfig(selector="none", target_freq_mhz=1500.0))
        assert a.hexdigest == b.hexdigest
        pa = prepare_stage_keys(_maeri_factory, tech, TEST_SEED,
                                BASE_CONFIG)
        pb = prepare_stage_keys(_maeri_factory, tech, TEST_SEED,
                                BASE_CONFIG)
        assert pa == pb

    def test_perturbation_table_is_exhaustive(self):
        """Regression (shared key-derivation helper): every FlowConfig
        field must have a perturbation here, so the test below checks
        that the flow key covers it."""
        field_names = {f.name for f in dataclasses.fields(FlowConfig)}
        assert field_names == set(_PERTURBATIONS), (
            "new FlowConfig field: add it to _PERTURBATIONS (flow keys "
            "must cover it)")

    @pytest.mark.parametrize("field_name", sorted(_PERTURBATIONS))
    def test_each_config_field_changes_key(self, tech, field_name):
        base_cfg, changed = _perturbed(field_name)
        base = flow_key(_maeri_factory, tech, TEST_SEED, base_cfg)
        assert flow_key(_maeri_factory, tech, TEST_SEED,
                        changed).hexdigest != base.hexdigest

    @pytest.mark.parametrize(
        "field_name", [f.name for f in dataclasses.fields(TrainConfig)])
    def test_each_train_field_changes_key(self, tech, field_name):
        """Every TrainConfig field can change the trained selector, so
        each one must move the flow key."""
        train = BASE_CONFIG.train
        value = getattr(train, field_name)
        bumped = (not value) if isinstance(value, bool) else value + 1
        changed = dataclasses.replace(
            BASE_CONFIG, train=dataclasses.replace(
                train, **{field_name: bumped}))
        base = flow_key(_maeri_factory, tech, TEST_SEED, BASE_CONFIG)
        assert flow_key(_maeri_factory, tech, TEST_SEED,
                        changed).hexdigest != base.hexdigest

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_seed_perturbation(self, tech, seed):
        base = flow_key(_maeri_factory, tech, TEST_SEED,
                        BASE_CONFIG)
        other = flow_key(_maeri_factory, tech, seed, BASE_CONFIG)
        assert (other.hexdigest == base.hexdigest) == (seed == TEST_SEED)

    @given(freq=st.floats(min_value=100.0, max_value=4000.0,
                          allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_freq_perturbation(self, tech, freq):
        base = prepare_stage_keys(_maeri_factory, tech, TEST_SEED,
                                  BASE_CONFIG).prepared
        other = prepare_stage_keys(
            _maeri_factory, tech, TEST_SEED,
            dataclasses.replace(BASE_CONFIG, target_freq_mhz=freq)).prepared
        assert (other.hexdigest == base.hexdigest) == \
            (freq == BASE_CONFIG.target_freq_mhz)

    def test_tech_perturbation(self, tech, homo_tech):
        assert tech_digest(tech) != tech_digest(homo_tech)
        a = flow_key(_maeri_factory, tech, TEST_SEED, BASE_CONFIG)
        b = flow_key(_maeri_factory, homo_tech, TEST_SEED, BASE_CONFIG)
        assert a.hexdigest != b.hexdigest

    def test_factory_param_perturbation(self, tech):
        """Different factory bodies (bandwidth 8 vs 16) -> new keys."""
        a = flow_key(_maeri_factory, tech, TEST_SEED, BASE_CONFIG)
        b = flow_key(_maeri_factory_wide, tech, TEST_SEED, BASE_CONFIG)
        assert a.hexdigest != b.hexdigest

    def test_literal_constant_change_invalidates_key(self, tech):
        """Regression (co_code-only fingerprint): factories that
        differ *only* in a literal constant share bytecode, yet get
        distinct keys (their definitions sit on different lines; an
        edit in place moves the file's digest)."""
        narrow, wide = _same_name_factory(False), _same_name_factory(True)
        # The trap this test pins: identical bytecode, different consts.
        assert narrow.__code__.co_code == wide.__code__.co_code
        ka = flow_key(narrow, tech, TEST_SEED, BASE_CONFIG)
        kb = flow_key(wide, tech, TEST_SEED, BASE_CONFIG)
        assert ka.hexdigest != kb.hexdigest
        # Deterministic: an identically-rebuilt factory shares the key.
        rebuilt = flow_key(_same_name_factory(False), tech, TEST_SEED,
                           BASE_CONFIG)
        assert rebuilt.hexdigest == ka.hexdigest

    def test_nested_code_literal_change_invalidates_key(self, tech):
        """Same trap one level down: factories whose differing literal
        sits in an inner function get distinct keys."""
        narrow = _nested_literal_factory(False)
        wide = _nested_literal_factory(True)
        assert narrow.__code__.co_code == wide.__code__.co_code
        ka = flow_key(narrow, tech, TEST_SEED, BASE_CONFIG)
        kb = flow_key(wide, tech, TEST_SEED, BASE_CONFIG)
        assert ka.hexdigest != kb.hexdigest

    def test_stage_keys_are_prefix_shaped(self, tech):
        """No config field moves the place key: frequency and scan
        sweeps — or any other perturbation — share the placement
        artifact."""
        base = prepare_stage_keys(_maeri_factory, tech, TEST_SEED,
                                  BASE_CONFIG)
        swept = prepare_stage_keys(
            _maeri_factory, tech, TEST_SEED,
            dataclasses.replace(BASE_CONFIG, target_freq_mhz=1700.0,
                                with_scan=True))
        assert swept.prepared != base.prepared
        for field_name in sorted(_PERTURBATIONS):
            _, changed = _perturbed(field_name)
            keys = prepare_stage_keys(_maeri_factory, tech, TEST_SEED,
                                      changed)
            assert keys.place == base.place, field_name

    def test_unnameable_factory_refused(self, tech):
        """A factory whose parameters are not content (a closure over an
        opaque object, a ``functools.partial``, a callable instance)
        has no key: there is no identity-keyed fallback."""
        opaque = object()

        def closure_factory(libraries, seed):
            _ = opaque          # closure over an opaque object
            return _maeri_factory(libraries, seed)

        def parametric(config, libraries, seed):
            return generate_maeri(config, libraries, seed)

        class CallableFactory:
            def __call__(self, libraries, seed):
                return _maeri_factory(libraries, seed)

        partial = functools.partial(parametric, MaeriConfig(pe_count=16,
                                                            bandwidth=8))
        for factory in (closure_factory, partial, CallableFactory()):
            with pytest.raises(TypeError):
                flow_key(factory, tech, TEST_SEED, BASE_CONFIG)


#: The ``repro`` package these tests import.
_PACKAGE = Path(repro.__file__).resolve().parent

#: Prints the four stage keys of one MAERI-16 ``gnn`` flow (seed 7) as
#: derived by whichever ``repro`` is first on ``PYTHONPATH``.
_KEYS_SCRIPT = """
import json
from repro.harness.designs import get_benchmark
from repro.service import flow_key, flow_summary_key, prepare_stage_keys
spec = get_benchmark("maeri16_hetero")
config, tech = spec.flow_config("gnn"), spec.tech()
stage = prepare_stage_keys(spec.factory, tech, 7, config)
print(json.dumps({
    "place": stage.place.hexdigest,
    "prepared": stage.prepared.hexdigest,
    "flow.report": flow_key(spec.factory, tech, 7, config).hexdigest,
    "flow.summary": flow_summary_key(spec.factory, tech, 7,
                                     config).hexdigest}))
"""


def _keys_under(src_root: Path, cwd: Path) -> dict[str, str]:
    proc = subprocess.run(
        [sys.executable, "-c", _KEYS_SCRIPT], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(src_root)),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _package_copy(dest: Path, rel: str | None = None, old: str = "",
                  new: str = "") -> Path:
    """Copy the package under *dest*; with *rel*, replace *old* by
    *new* in that file (which must contain *old*)."""
    shutil.copytree(_PACKAGE, dest / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if rel is not None:
        path = dest / "repro" / rel
        text = path.read_text()
        assert old in text, (rel, old)
        path.write_text(text.replace(old, new))
    return dest


class TestKeysFollowTheSource:
    def test_library_edit_moves_every_stage_key(self, tmp_path):
        """A verbatim copy of the package at another path derives the
        original's keys; one edited placer or trainer constant moves
        all four (a store written before the edit then misses)."""
        original = _keys_under(_PACKAGE.parent, tmp_path)
        assert set(original) == {"place", "prepared", "flow.report",
                                 "flow.summary"}
        verbatim = _package_copy(tmp_path / "verbatim")
        assert _keys_under(verbatim, tmp_path) == original
        edits = {
            "placer": ("place/bisection.py", "SOLVE_STOP_MULT = 2",
                       "SOLVE_STOP_MULT = 0"),
            "trainer": ("core/trainer.py", "FINETUNE_LR = 2e-3",
                        "FINETUNE_LR = 3e-3"),
        }
        for name, edit in edits.items():
            edited = _keys_under(_package_copy(tmp_path / name, *edit),
                                 tmp_path)
            for kind, hexdigest in edited.items():
                assert hexdigest != original[kind], (name, kind)


_json_leaves = (st.none() | st.booleans()
                | st.integers(min_value=-2**53, max_value=2**53)
                | st.floats(allow_nan=False)
                | st.text(max_size=20)
                | st.binary(max_size=32))
_payloads = st.recursive(
    _json_leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner,
                                     max_size=4)),
    max_leaves=12)


class TestBlobFormat:
    @given(obj=_payloads)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_bit_identical(self, obj):
        blob = write_artifact_bytes(obj)
        restored = read_artifact_bytes(blob)
        assert dumps_snapshot(restored) == dumps_snapshot(obj)

    @given(obj=_payloads, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_corruption_detected(self, obj, data):
        blob = bytearray(write_artifact_bytes(obj))
        if data.draw(st.booleans(), label="truncate"):
            cut = data.draw(st.integers(0, len(blob) - 1),
                            label="cut_at")
            blob = blob[:cut]
        else:
            pos = data.draw(st.integers(0, len(blob) - 1),
                            label="flip_at")
            bit = data.draw(st.integers(0, 7), label="bit")
            blob[pos] ^= 1 << bit
        with pytest.raises(ArtifactCorruptError):
            read_artifact_bytes(bytes(blob))

    def test_netlist_roundtrip_golden_digest(self, tech):
        netlist = _maeri_factory(tech.libraries, TEST_SEED)
        restored = read_artifact_bytes(write_artifact_bytes(netlist))
        assert netlist_digest(restored) == netlist_digest(netlist)


def _key(tag: str, kind: str = "test.blob") -> ContentKey:
    import hashlib
    return ContentKey(kind, hashlib.sha256(tag.encode()).hexdigest())


class TestArtifactStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        obj = {"rows": list(range(100)), "name": "x"}
        key = _key("roundtrip")
        assert store.get(key) is None
        store.put(key, obj)
        assert store.contains(key)
        assert store.get(key) == obj
        # A second handle on the same root (fresh process) still hits.
        again = ArtifactStore(tmp_path / "store")
        assert again.get(key) == obj

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_corrupted_artifact_is_a_miss(self, tmp_path_factory, data):
        root = tmp_path_factory.mktemp("corrupt")
        store = ArtifactStore(root)
        key = _key("victim")
        store.put(key, {"payload": "x" * 500})
        path = store.object_path(key)
        blob = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1),
                                   label="cut")]
        else:
            blob[data.draw(st.integers(0, len(blob) - 1),
                           label="pos")] ^= 0xFF
        path.write_bytes(bytes(blob))
        corrupt_before = metrics.counter("store.corrupt")
        assert store.get(key) is None
        assert metrics.counter("store.corrupt") == corrupt_before + 1
        assert not path.exists()        # dropped, never served again
        assert store.get(key) is None   # plain miss now

    def test_interrupted_put_leaves_no_partial(self, tmp_path,
                                               monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        key = _key("crashme")
        real_replace = os.replace

        def exploding_replace(src, dst):
            if str(dst).endswith(".bin"):
                raise OSError("simulated crash mid-publish")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            store.put(key, {"x": 1})
        monkeypatch.setattr(os, "replace", real_replace)
        assert not store.contains(key)
        assert store.get(key) is None
        assert not list((tmp_path / "store" / "tmp").iterdir())
        # The store remains fully usable afterwards.
        store.put(key, {"x": 1})
        assert store.get(key) == {"x": 1}

    def test_lru_eviction_respects_budget(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", budget_bytes=9000)
        payload = {"blob": os.urandom(2048)}      # ~2 KB incompressible
        keys = [_key(f"evict-{i}") for i in range(6)]
        before = metrics.counter("store.evictions")
        for key in keys:
            store.put(key, payload)
        assert metrics.counter("store.evictions") - before >= 2
        assert store.total_bytes() <= 9000
        # Newest write always survives; oldest-accessed went first.
        assert store.contains(keys[-1])
        assert not store.contains(keys[0])
        # A get refreshes recency: touch the oldest survivor, add one
        # more artifact, and the touched entry outlives its peer.
        survivors = [k for k in keys if store.contains(k)]
        assert store.get(survivors[0]) is not None
        store.put(_key("evict-final"), payload)
        assert store.contains(survivors[0])

    def test_two_handles_on_one_root_merge_index(self, tmp_path):
        """Two handles on one root (a CLI ``--store`` run next to a
        live daemon) see one store: every blob either one wrote, its
        bytes as on disk, and one handle's deletions."""
        root = tmp_path / "store"
        a = ArtifactStore(root)
        b = ArtifactStore(root)         # opened before a's first put
        ka, kb = _key("writer-a"), _key("writer-b")
        a.put(ka, {"payload": "a" * 256})
        b.put(kb, {"payload": "b" * 256})
        on_disk = sum(p.stat().st_size
                      for p in (root / "objects").glob("*/*.bin"))
        for store in (a, b):
            assert store.contains(ka) and store.contains(kb)
            assert store.stats()["entries"] == 2
            assert store.total_bytes() == on_disk
        a.clear()
        kc = _key("after-clear")
        b.put(kc, {"payload": "c" * 256})
        for store in (a, b):
            assert store.stats()["entries"] == 1
            assert store.contains(kc) and not store.contains(ka)

    def test_clear(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = _key("gone")
        store.put(key, 42)
        store.clear()
        assert store.total_bytes() == 0
        assert store.get(key) is None
