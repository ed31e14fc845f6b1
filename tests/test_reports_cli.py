"""Timing/congestion report and CLI tests."""

import pytest

from repro.cli import main
from repro.route.report import render_heatmap, render_utilization
from repro.timing import extract_worst_paths, run_sta
from repro.timing.report import render_path, render_summary


class TestTimingReport:
    def test_render_summary_contains_headlines(self, routed_small_design):
        report = run_sta(routed_small_design)
        text = render_summary(report, num_paths=2)
        assert "WNS" in text and "TNS" in text
        assert "Slack histogram" in text
        assert f"{report.num_endpoints} endpoints" in text

    def test_render_path_arcs_sum_to_arrival(self, routed_small_design):
        report = run_sta(routed_small_design)
        path = extract_worst_paths(report, 1)[0]
        text = render_path(report, path)
        lines = [l for l in text.splitlines()
                 if l.strip().startswith(("launch", "cell", "net"))]
        total = sum(float(l.split()[1]) for l in lines)
        assert total == pytest.approx(path.arrival_ps, abs=0.5)
        assert path.endpoint in text


class TestCongestionReport:
    def test_utilization_table(self, routed_small_design):
        routing = routed_small_design.require_routing()
        text = render_utilization(routing)
        assert "wirelength" in text
        # one row per (tier, pair)
        grid = routing.grid
        rows = [l for l in text.splitlines()
                if l and l[0].isdigit()]
        expected = sum(grid.num_pairs(t) for t in range(len(grid.usage)))
        assert len(rows) == expected

    def test_heatmap_renders(self, routed_small_design):
        routing = routed_small_design.require_routing()
        text = render_heatmap(routing, tier=0, pair=0)
        assert "peak" in text
        assert len(text.splitlines()) > 2


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "maeri16_hetero" in out
        assert "selectors:" in out

    def test_export_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "m16.v"
        assert main(["export", "--benchmark", "maeri16_hetero",
                     "--out", str(out_file)]) == 0
        assert out_file.exists()
        assert "instances" in capsys.readouterr().out

    def test_flow_none(self, capsys):
        assert main(["flow", "--benchmark", "maeri16_hetero",
                     "--selector", "none"]) == 0
        out = capsys.readouterr().out
        assert "wns_ps" in out

    def test_timing_report_command(self, capsys):
        assert main(["timing", "--benchmark", "maeri16_hetero",
                     "--selector", "none", "--paths", "1"]) == 0
        assert "Timing summary" in capsys.readouterr().out

    def test_congestion_command(self, capsys):
        assert main(["congestion", "--benchmark", "maeri16_hetero",
                     "--selector", "none"]) == 0
        assert "Routing utilization" in capsys.readouterr().out

    def test_bad_command_exits(self):
        with pytest.raises(SystemExit):
            main(["definitely-not-a-command"])
