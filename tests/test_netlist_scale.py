"""Scale regression: MAERI-128 prepare + snapshot round trip.

Before the flat netlist core, pickling a prepared maeri128_hetero
design segfaulted the interpreter: the object-graph pickle recursed
pin -> net -> pin across ~14k instances, and the raised
``sys.setrecursionlimit`` in the snapshot pickler pushed Python
past the C stack instead of raising ``RecursionError``.  These tests
are the direct regression for that crash — they must pass *in this
process* (a segfault here kills the pytest run, which is the point).

Marked ``slow``; CI runs them in the dedicated ``netlist-scale`` job.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.flow import FlowConfig, prepare_design
from repro.harness.designs import DEFAULT_EXPERIMENT_SEED, get_benchmark
from repro.snapshot import dumps_snapshot, loads_snapshot

from tests.golden_util import netlist_digest, placement_digest

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def maeri128_prepared():
    spec = get_benchmark("maeri128_hetero")
    config = FlowConfig(selector="none",
                        target_freq_mhz=spec.target_freq_mhz)
    return prepare_design(spec.factory, spec.tech(),
                          DEFAULT_EXPERIMENT_SEED, config)


class TestMaeri128Snapshot:
    def test_prepare_and_pickle_roundtrip(self, maeri128_prepared):
        """The exact payload the table harness shares and the store
        holds: no segfault, and the restored design is
        digest-identical."""
        design = maeri128_prepared
        assert len(design.netlist.instances) > 10_000
        payload = dumps_snapshot(design)
        restored = loads_snapshot(payload)
        assert netlist_digest(restored.netlist) \
            == netlist_digest(design.netlist)
        assert placement_digest(restored) == placement_digest(design)

    def test_roundtrip_is_recursion_limit_independent(self,
                                                     maeri128_prepared):
        """Flat serialization must not depend on sys.recursionlimit —
        the object-graph pickler needed ~1M frames for this design and
        died when the C stack ran out first."""
        design = maeri128_prepared
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            payload = dumps_snapshot(design)
            restored = loads_snapshot(payload)
        finally:
            sys.setrecursionlimit(limit)
        assert len(restored.netlist.instances) \
            == len(design.netlist.instances)

    def test_payload_fits_budget(self, maeri128_prepared):
        """Guard the snapshot size win (object-graph baseline was
        5 330 335 bytes at the seed commit; the flat core ships well
        under half of that — see BENCH_netlist.json)."""
        payload = dumps_snapshot(maeri128_prepared)
        assert len(payload) < 5_330_335 / 3
