"""End-to-end flow and harness tests (small fabric, fast settings)."""

import pytest

from repro import FlowConfig, run_flow
from repro.core.flow import prepare_design
from repro.core.trainer import TrainConfig
from repro.errors import FlowError
from repro.harness import BENCHMARKS, format_table, get_benchmark
from repro.netlist.generators import MaeriConfig, generate_maeri

from tests.conftest import TEST_SEED

FAST_TRAIN = TrainConfig(dgi_epochs=1, finetune_epochs=3)


def tiny_factory(libraries, seed):
    return generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                          libraries, seed)


def fast_config(selector: str, **kwargs) -> FlowConfig:
    defaults = dict(selector=selector, target_freq_mhz=1500.0,
                    num_paths=80, num_labeled=40, train=FAST_TRAIN,
                    pdn=False)
    defaults.update(kwargs)
    return FlowConfig(**defaults)


class TestFlowConfig:
    def test_unknown_selector(self):
        with pytest.raises(FlowError, match="unknown selector"):
            FlowConfig(selector="magic")

    def test_dft_requires_scan(self):
        with pytest.raises(FlowError, match="needs with_scan"):
            FlowConfig(dft_strategy="net-based", with_scan=False)

    def test_unknown_dft_strategy(self):
        with pytest.raises(FlowError, match="unknown DFT strategy"):
            FlowConfig(dft_strategy="bogus", with_scan=True)

    @pytest.mark.parametrize("field_name, value", [
        ("target_freq_mhz", float("nan")),
        ("target_freq_mhz", float("inf")),
        ("target_freq_mhz", 0.0),
        ("target_freq_mhz", -1500.0),
        ("num_paths", 0),
        ("num_labeled", 0),
        ("num_labeled", 1501),
        ("activity", -1.0),
        ("activity", 0.0),
        ("activity", 1.5),
        ("activity", float("nan")),
    ])
    def test_refuses_values_that_cannot_run(self, field_name, value):
        """A NaN clock would run the whole flow and report a
        timing-clean row: each value here must fail before any stage,
        with the field named."""
        with pytest.raises(FlowError, match=field_name):
            FlowConfig(**{field_name: value})

    def test_accepts_range_edges(self):
        config = FlowConfig(num_paths=1, num_labeled=1, activity=1.0,
                            target_freq_mhz=1e-3)
        assert config.num_labeled == config.num_paths


class TestRunFlow:
    @pytest.fixture(scope="class")
    def reports(self, hetero_tech):
        out = {}
        for sel in ("none", "sota", "oracle"):
            out[sel] = run_flow(tiny_factory, hetero_tech,
                                TEST_SEED, fast_config(sel))
        return out

    def test_row_fields_complete(self, reports):
        row = reports["none"].row()
        for key in ("target_freq_mhz", "wirelength_m", "wns_ps", "tns_ns",
                    "vio_paths", "mls_nets", "runtime_min", "power_mw",
                    "eff_freq_mhz"):
            assert key in row

    def test_result_row_drops_only_wall_clock(self, reports):
        row = reports["sota"].row()
        del row["runtime_min"]
        assert reports["sota"].result_row() == row

    def test_none_has_no_mls(self, reports):
        assert reports["none"].row()["mls_nets"] == 0

    def test_oracle_not_worse_than_none(self, reports):
        assert reports["oracle"].row()["tns_ns"] >= \
            reports["none"].row()["tns_ns"]

    def test_selectors_apply_mls(self, reports):
        assert reports["sota"].row()["mls_nets"] > 0
        assert reports["oracle"].row()["mls_nets"] > 0

    def test_baseline_kept_in_report(self, reports):
        report = reports["oracle"]
        assert report.baseline_sta.wns_ps <= 0
        assert report.applied_mls <= report.requested_mls or \
            report.applied_mls      # applied can only shrink vs request

    def test_gnn_flow_smoke(self, hetero_tech):
        report = run_flow(tiny_factory, hetero_tech,
                          TEST_SEED, fast_config("gnn"))
        assert report.model is not None
        assert report.select_runtime_s > 0
        assert report.runtime_s >= report.select_runtime_s
        assert report.stage_runtime_s["flow.select"] > 0
        assert report.row()["mls_nets"] >= 0

    def test_random_selector(self, hetero_tech):
        report = run_flow(tiny_factory, hetero_tech,
                          TEST_SEED, fast_config("random"))
        assert report.requested_mls

    def test_dft_flow_reports_coverage(self, hetero_tech):
        report = run_flow(
            tiny_factory, hetero_tech, TEST_SEED,
            fast_config("oracle", with_scan=True,
                        dft_strategy="wire-based"))
        row = report.row()
        assert 0 < row["coverage_pct"] <= 100
        assert row["total_faults"] > 0
        assert row["detected_faults"] <= row["total_faults"]

    def test_deterministic_across_runs(self, hetero_tech, reports):
        again = run_flow(tiny_factory, hetero_tech,
                         TEST_SEED, fast_config("sota"))
        row_a = again.result_row()
        row_b = reports["sota"].result_row()
        assert row_a == pytest.approx(row_b)


class TestPrepareDesign:
    def test_stages_attached(self, hetero_tech):
        design = prepare_design(tiny_factory, hetero_tech,
                                TEST_SEED,
                                fast_config("none"))
        assert design.tiers is not None
        assert design.placement is not None
        assert design.notes.get("level_shifters", 0) > 0
        assert "buffering" in design.notes

    def test_scan_stage_optional(self, hetero_tech):
        design = prepare_design(tiny_factory, hetero_tech,
                                TEST_SEED,
                                fast_config("none", with_scan=True))
        assert "scan_chain" in design.notes


class TestHarness:
    def test_benchmark_registry(self):
        assert set(BENCHMARKS) == {
            "maeri128_hetero", "a7_hetero", "maeri256_homo", "a7_homo",
            "maeri16_hetero"}
        spec = get_benchmark("maeri128_hetero")
        assert spec.is_heterogeneous
        assert spec.paper_target_mhz == 2500.0

    def test_unknown_benchmark(self):
        with pytest.raises(FlowError):
            get_benchmark("maeri1024")

    def test_homo_specs_not_heterogeneous(self):
        assert not get_benchmark("a7_homo").is_heterogeneous

    def test_format_table_renders(self):
        rows = {
            "none": {"wns_ps": -85.0, "tns_ns": -327.0},
            "ours": {"wns_ps": -23.0, "tns_ns": -11.0},
        }
        text = format_table("Table X", ["none", "ours"], rows,
                            [("wns_ps", "WNS (ps)", ".1f"),
                             ("tns_ns", "TNS (ns)", ".1f"),
                             ("missing", "Missing", ".1f")])
        assert "Table X" in text
        assert "-85.0" in text and "-23.0" in text
        assert "-" in text.splitlines()[-1]      # missing metric placeholder
