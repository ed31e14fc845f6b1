"""Perf-trend ledger tests: append/load, latest-sample view, budgets,
and the regression gate (including the silently-missing-leg failure)."""

from __future__ import annotations

import json

import pytest

from repro.obs.trend import (append_trend, check_gate, latest_legs,
                             load_budgets, load_trend, write_budgets)


class TestLedger:
    def test_append_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "trend.jsonl"
        rec = append_trend(path, "place",
                           {"place.m16.cached_s": 0.4112349},
                           smoke=True, meta={"cpu_count": 4})
        assert rec["v"] == 1
        assert rec["legs"]["place.m16.cached_s"] == 0.411235  # rounded
        assert rec["smoke"] is True
        append_trend(path, "route", {"route.m16.serial_s": 0.2})
        records = load_trend(path)
        assert [r["bench"] for r in records] == ["place", "route"]
        assert "meta" not in records[1]

    def test_missing_file_is_empty(self, tmp_path):
        assert load_trend(tmp_path / "nope.jsonl") == []

    def test_nonfinite_leg_rejected(self, tmp_path):
        path = tmp_path / "trend.jsonl"
        for bad in (float("nan"), float("inf"), "0.3", True):
            with pytest.raises(ValueError, match="bad_s"):
                append_trend(path, "x", {"x.bad_s": bad})
        assert not path.exists()

    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "trend.jsonl"
        path.write_text('{"v": 1, "legs": {}}\n{oops\n')
        with pytest.raises(ValueError, match="trend.jsonl:2"):
            load_trend(path)
        path.write_text('{"v": 1}\n')
        with pytest.raises(ValueError, match="no legs"):
            load_trend(path)

    def test_latest_sample_wins(self, tmp_path):
        path = tmp_path / "trend.jsonl"
        append_trend(path, "place", {"place.m16.cached_s": 0.5})
        append_trend(path, "place", {"place.m16.cached_s": 0.3,
                                     "place.m16.seed_place_s": 1.0})
        latest = latest_legs(load_trend(path))
        assert latest["place.m16.cached_s"]["value"] == 0.3
        assert latest["place.m16.cached_s"]["bench"] == "place"
        assert set(latest) == {"place.m16.cached_s",
                               "place.m16.seed_place_s"}


class TestBudgets:
    def test_write_then_load(self, tmp_path):
        budgets_path = tmp_path / "budgets.json"
        latest = {"a.leg_s": {"value": 0.5, "ts": None, "bench": "a"},
                  "b.leg_s": {"value": 1.0, "ts": None, "bench": "b"}}
        payload = write_budgets(budgets_path, latest, tolerance=0.1,
                                headroom=2.0)
        assert payload["budgets"] == {"a.leg_s": 1.0, "b.leg_s": 2.0}
        loaded = load_budgets(budgets_path)
        assert loaded["tolerance"] == 0.1
        assert loaded["budgets"]["a.leg_s"] == 1.0

    def test_leg_filter_and_missing_sample(self, tmp_path):
        latest = {"a.leg_s": {"value": 0.5, "ts": None, "bench": "a"}}
        payload = write_budgets(tmp_path / "b.json", latest,
                                legs=["a.leg_s"])
        assert set(payload["budgets"]) == {"a.leg_s"}
        with pytest.raises(ValueError, match="no trend sample"):
            write_budgets(tmp_path / "b.json", latest, legs=["ghost_s"])

    def test_update_one_leg_keeps_the_others(self, tmp_path):
        """``repro trace gate --update-budgets --leg NAME`` re-baselines
        NAME at the file's headroom and keeps every other budget, the
        tolerance and the headroom."""
        from repro.cli import main
        budgets_path = tmp_path / "budgets.json"
        budgets_path.write_text(json.dumps(
            {"version": 1, "tolerance": 0.2, "headroom": 3.0,
             "budgets": {"a.leg_s": 9.0, "b.leg_s": 5.0}}))
        trend_path = tmp_path / "trend.jsonl"
        append_trend(trend_path, "x", {"a.leg_s": 0.5, "b.leg_s": 0.1,
                                       "c.leg_s": 0.7})
        assert main(["trace", "gate", "--update-budgets",
                     "--leg", "a.leg_s", "--trend", str(trend_path),
                     "--budgets", str(budgets_path)]) == 0
        payload = load_budgets(budgets_path)
        assert payload["budgets"] == {"a.leg_s": 1.5, "b.leg_s": 5.0}
        assert (payload["tolerance"], payload["headroom"]) == (0.2, 3.0)

        latest = latest_legs(load_trend(trend_path))
        payload = write_budgets(budgets_path, latest, legs=["c.leg_s"],
                                tolerance=0.1, headroom=2.0)
        assert payload["budgets"] == {"a.leg_s": 1.5, "b.leg_s": 5.0,
                                      "c.leg_s": 1.4}
        assert (payload["tolerance"], payload["headroom"]) == (0.1, 2.0)

    def test_invalid_budgets_rejected(self, tmp_path):
        path = tmp_path / "budgets.json"
        path.write_text(json.dumps({"budgets": {"a": -1.0}}))
        with pytest.raises(ValueError, match="positive"):
            load_budgets(path)
        path.write_text(json.dumps({"tolerance": 0.1}))
        with pytest.raises(ValueError, match="no budgets"):
            load_budgets(path)


class TestGate:
    BUDGETS = {"tolerance": 0.15,
               "budgets": {"place.m16.cached_s": 1.0}}

    def _latest(self, value):
        return {"place.m16.cached_s":
                {"value": value, "ts": None, "bench": "place"}}

    def test_pass_within_ceiling(self):
        # ceiling = 1.0 * 1.15; a sample right at it passes.
        failures, lines = check_gate(self._latest(1.15), self.BUDGETS)
        assert failures == []
        assert any("ok" in line for line in lines)

    def test_regression_fails(self):
        failures, lines = check_gate(self._latest(1.2), self.BUDGETS)
        assert len(failures) == 1
        assert "exceeds budget" in failures[0]
        assert any("REGRESSED" in line for line in lines)

    def test_missing_sample_fails(self):
        # A leg that silently stopped being measured must not pass.
        failures, lines = check_gate({}, self.BUDGETS)
        assert failures == ["place.m16.cached_s: no trend sample "
                            "recorded"]
        assert any("MISSING" in line for line in lines)

    def test_repo_budgets_cover_tracked_legs(self):
        """The checked-in budgets file gates the ISSUE-named legs and
        every budgeted leg has a seed sample in the checked-in ledger."""
        from pathlib import Path
        repo = Path(__file__).resolve().parent.parent
        budgets = load_budgets(repo / "benchmarks" / "budgets.json")
        names = set(budgets["budgets"])
        for prefix in ("place.", "route.", "sta.", "select.",
                       "service."):
            assert any(n.startswith(prefix) for n in names), \
                f"no budgeted {prefix}* leg"
        latest = latest_legs(load_trend(
            repo / "benchmarks" / "results" / "trend.jsonl"))
        failures, _lines = check_gate(latest, budgets)
        assert failures == []
