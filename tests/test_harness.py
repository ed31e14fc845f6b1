"""Harness tests with an injected tiny benchmark (keeps CI fast)."""

import pytest

from repro.core.trainer import TrainConfig
from repro.harness.designs import BENCHMARKS, BenchmarkSpec
from repro.harness.tables import (clear_flow_cache, flow_comparison_rows,
                                  run_benchmark_flow)
from repro.netlist.generators import MaeriConfig, generate_maeri

from tests.golden_util import netlist_digest


def _tiny_factory(libraries, seed):
    return generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                          libraries, seed)


@pytest.fixture()
def tiny_benchmark(monkeypatch):
    spec = BenchmarkSpec(
        key="tiny_test",
        paper_name="tiny",
        logic_node="16nm", memory_node="28nm", beol_layers=6,
        target_freq_mhz=1900.0, paper_target_mhz=2500.0,
        factory=_tiny_factory,
        num_paths=60, num_labeled=30,
    )
    monkeypatch.setitem(BENCHMARKS, "tiny_test", spec)
    clear_flow_cache()
    yield spec
    clear_flow_cache()


class TestFlowCache:
    def test_cache_hit_returns_same_report(self, tiny_benchmark):
        a = run_benchmark_flow(tiny_benchmark, "none")
        b = run_benchmark_flow(tiny_benchmark, "none")
        assert a is b

    def test_cache_varies_by_selector_and_options(self, tiny_benchmark):
        a = run_benchmark_flow(tiny_benchmark, "none")
        b = run_benchmark_flow(tiny_benchmark, "sota")
        assert a is not b
        c = run_benchmark_flow(tiny_benchmark, "none", seed=999)
        assert a is not c

    def test_flow_comparison_rows(self, tiny_benchmark):
        rows = flow_comparison_rows("tiny_test", selectors=("none", "sota"))
        assert set(rows) == {"none", "sota"}
        assert rows["none"]["mls_nets"] == 0


class TestSpecHelpers:
    def test_tech_and_seeds(self, tiny_benchmark):
        """The spec's factory takes the plain int seed."""
        tech = tiny_benchmark.tech()
        assert tech.is_heterogeneous
        netlist = tiny_benchmark.factory(tech.libraries, 1)
        assert netlist_digest(netlist) \
            == netlist_digest(tiny_benchmark.factory(tech.libraries, 1))

    def test_registry_specs_consistent(self):
        for key, spec in BENCHMARKS.items():
            if key == "tiny_test":
                continue
            assert spec.key == key
            assert spec.target_freq_mhz <= spec.paper_target_mhz
            assert spec.num_labeled <= spec.num_paths
