"""Observability subsystem tests: spans, metrics, logging, schemas.

Covers the repro.obs contracts end to end:

* the disabled fast path is a shared no-op (and cheap);
* spans nest with correct parent ids;
* JSONL, Chrome-trace and metrics dumps satisfy their validators;
* tracing never changes results — FlowReport rows are bit-identical
  with tracing on vs off;
* the structured logger keeps default-level stdout byte-identical to
  the prints it replaced and honours --log-level;
* the CLI --trace/--metrics round-trip produces valid files.
"""

from __future__ import annotations

import json
import time

import pytest

from repro import run_flow
from repro.obs import get_logger, metrics, set_log_level, trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import (validate_chrome_trace, validate_metrics,
                              validate_trace_jsonl)
from repro.obs.tracer import Tracer, _NULL_SPAN, chrome_trace_path

from tests.conftest import TEST_SEED
from tests.test_flow import fast_config, tiny_factory


@pytest.fixture(autouse=True)
def _clean_obs():
    """Leave the module singletons the way every other test expects."""
    yield
    trace.disable()
    trace.reset()
    set_log_level("info")


def by_name(records: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for rec in records:
        out.setdefault(rec["name"], []).append(rec)
    return out


class TestNullFastPath:
    def test_disabled_span_is_shared_noop(self):
        assert not trace.enabled
        assert trace.span("a") is _NULL_SPAN
        assert trace.span("b", attr=1) is _NULL_SPAN
        with trace.span("c") as span:
            assert span.set(x=1) is span
        assert trace.records == []

    def test_disabled_span_overhead_is_small(self):
        # Loose ceiling, not a benchmark: 50k disabled spans must stay
        # far below anything a flow stage would notice (<5us each).
        n = 50_000
        t0 = time.perf_counter()
        for _ in range(n):
            with trace.span("hot", i=0):
                pass
        elapsed = time.perf_counter() - t0
        assert elapsed < 5e-6 * n


class TestSpans:
    def test_nesting_and_parent_ids(self):
        tr = Tracer()
        tr.enable()
        with tr.span("outer", stage="x"):
            with tr.span("inner.a"):
                pass
            with tr.span("inner.b") as span:
                span.set(found=3)
        recs = by_name(tr.records)
        outer = recs["outer"][0]
        assert outer["parent"] is None
        assert outer["attrs"] == {"stage": "x"}
        for name in ("inner.a", "inner.b"):
            assert recs[name][0]["parent"] == outer["id"]
        assert recs["inner.b"][0]["attrs"] == {"found": 3}
        # Completion order: children close before their parent.
        assert [r["name"] for r in tr.records] == \
            ["inner.a", "inner.b", "outer"]
        assert all(r["dur_us"] >= 0 for r in tr.records)

    def test_ids_unique_and_pid_prefixed(self):
        tr = Tracer()
        tr.enable()
        for _ in range(5):
            with tr.span("s"):
                pass
        ids = [r["id"] for r in tr.records]
        assert len(set(ids)) == 5
        assert all(i.startswith(f"{tr._pid:x}-") for i in ids)

    def test_threads_keep_independent_span_stacks(self):
        """Concurrent spans on different threads never adopt each
        other as parents: each thread nests on its own stack
        (threading.local), while ids stay process-unique."""
        import threading

        tr = Tracer()
        tr.enable()
        entered = threading.Barrier(3)

        def worker(tag: str) -> None:
            with tr.span(f"outer.{tag}"):
                entered.wait()          # all outers open concurrently
                with tr.span(f"inner.{tag}"):
                    pass

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in ("a", "b")]
        with tr.span("main.outer"):
            for t in threads:
                t.start()
            entered.wait()
            with tr.span("main.inner"):
                pass
            for t in threads:
                t.join()
        recs = by_name(tr.records)
        for tag in ("a", "b"):
            outer = recs[f"outer.{tag}"][0]
            assert outer["parent"] is None
            assert recs[f"inner.{tag}"][0]["parent"] == outer["id"]
        assert recs["main.inner"][0]["parent"] == \
            recs["main.outer"][0]["id"]
        ids = [r["id"] for r in tr.records]
        assert len(set(ids)) == len(ids)

    def test_reset_keeps_ids_unique(self):
        tr = Tracer()
        tr.enable()
        with tr.span("a"):
            pass
        first = tr.records[0]["id"]
        tr.reset()
        tr.enable()
        with tr.span("b"):
            pass
        assert tr.records[0]["id"] != first


class TestPrepareCacheSpans:
    def test_miss_stores_hit_copies(self, monkeypatch):
        """The shared prepare's pickle work is attributed: the first
        memo miss of a multi-selector call pickles the design it built
        (and flows it), each later miss unpickles its own copy; both
        spans carry the snapshot size."""
        import repro.harness.tables as tables
        from repro.harness.designs import get_benchmark

        monkeypatch.setattr(
            tables, "prepare_design",
            lambda factory, tech, seed, config: ("stub", seed))
        monkeypatch.setattr(
            tables, "run_flow",
            lambda factory, tech, seed, config, prepare:
                prepare(factory, tech, seed, config))
        tables.clear_flow_cache()
        trace.enable()
        trace.reset()
        try:
            designs = tables.run_benchmark_flows(
                get_benchmark("maeri16_hetero"), ("none", "sota"),
                seed=TEST_SEED)
            records = list(trace.records)
        finally:
            trace.disable()
            trace.reset()
            tables.clear_flow_cache()
        assert designs == {"none": ("stub", TEST_SEED),
                           "sota": ("stub", TEST_SEED)}
        names = [rec["name"] for rec in records]
        assert names == ["prepare.pickle", "prepare.copy"]
        sizes = {rec["attrs"]["bytes"] for rec in records}
        assert len(sizes) == 1 and sizes.pop() > 0


class TestMetricsRegistry:
    def test_counter_gauge_stat_families(self):
        reg = MetricsRegistry()
        reg.inc("hits")
        reg.inc("hits", 2)
        reg.set_gauge("workers", 4)
        reg.set_gauge("workers", 8)
        for value in (3.0, 1.0, 2.0):
            reg.observe("wave", value)
        snap = reg.snapshot()
        assert snap["counters"]["hits"] == 3
        assert snap["gauges"]["workers"] == 8
        assert snap["stats"]["wave"] == {"count": 3, "total": 6.0,
                                         "min": 1.0, "max": 3.0,
                                         "mean": 2.0}
        assert reg.counter("missing") == 0

    def test_write_json_validates(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.set_gauge("b", 1.5)
        reg.add_time("c_s", 0.25)
        path = tmp_path / "metrics.json"
        reg.write_json(path)
        assert validate_metrics(path) == \
            {"counters": 1, "gauges": 1, "stats": 1, "histograms": 0}


class TestLogger:
    def test_info_to_stdout_warning_to_stderr(self, capsys):
        log = get_logger("repro.test")
        log.info("plain message")
        log.warning("scary message")
        captured = capsys.readouterr()
        assert captured.out == "plain message\n"   # byte-identical print
        assert captured.err == "scary message\n"

    def test_level_threshold(self, capsys):
        log = get_logger("repro.test")
        set_log_level("warning")
        log.info("suppressed")
        log.warning("kept")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "kept\n"
        set_log_level("debug")
        log.debug("now visible")
        assert capsys.readouterr().out == "now visible\n"

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            set_log_level("loud")


class TestFlowTracing:
    @pytest.fixture(scope="class")
    def traced_flow(self, hetero_tech):
        trace.enable()
        trace.reset()
        try:
            report = run_flow(
                tiny_factory, hetero_tech, TEST_SEED,
                fast_config("oracle", with_scan=True,
                            dft_strategy="wire-based", pdn=True))
            records = list(trace.records)
        finally:
            trace.disable()
            trace.reset()
        return report, records

    def test_all_pipeline_stages_have_spans(self, traced_flow):
        _, records = traced_flow
        names = {rec["name"] for rec in records}
        expected = {
            "flow", "flow.prepare", "prepare.generate",
            "prepare.partition", "prepare.place",
            "prepare.level_shifters", "prepare.scan", "prepare.buffer",
            "flow.route_baseline", "flow.sta_baseline", "flow.select",
            "flow.route_mls", "flow.dft", "flow.power", "flow.pdn",
            "place.quadratic", "place.bisection", "place.solve",
            "place.factor", "place.back_solve", "place.legalize",
            "route.all", "sta.full", "sta.update_routing",
        }
        assert expected <= names

    def test_span_tree_is_rooted_at_flow(self, traced_flow, tmp_path):
        _, records = traced_flow
        recs = by_name(records)
        flow_span = recs["flow"][0]
        assert flow_span["parent"] is None
        assert flow_span["attrs"]["selector"] == "oracle"
        by_id = {rec["id"]: rec for rec in records}
        for name in ("flow.prepare", "flow.select", "flow.dft",
                     "flow.pdn"):
            assert recs[name][0]["parent"] == flow_span["id"]
        # Every stage span traces a parent chain back up to "flow".
        for rec in records:
            node = rec
            while node["parent"] is not None:
                node = by_id[node["parent"]]
            assert node["name"] == "flow"

    def test_trace_files_validate(self, traced_flow, tmp_path):
        _, records = traced_flow
        tr = Tracer()
        tr.enable()
        tr.records.extend(records)
        jsonl = tmp_path / "flow.jsonl"
        tr.write_jsonl(jsonl)
        summary = validate_trace_jsonl(jsonl)
        assert summary["spans"] == len(records)
        assert summary["roots"] >= 1
        chrome = chrome_trace_path(jsonl)
        tr.write_chrome(chrome)
        assert validate_chrome_trace(chrome)["events"] == len(records)
        with open(chrome, encoding="utf-8") as fh:
            events = json.load(fh)["traceEvents"]
        assert min(e["ts"] for e in events) == 0    # rebased timeline

    def test_runtime_fields(self, traced_flow):
        report, _ = traced_flow
        assert report.runtime_s >= report.select_runtime_s > 0
        stages = report.stage_runtime_s
        assert stages["flow.prepare"] > 0
        # The stage breakdown accounts for (nearly) the whole runtime.
        assert sum(stages.values()) <= report.runtime_s * 1.001
        assert "runtime_s" not in report.row()      # wall-clock stays out

    def test_flow_metrics_counters_move(self, traced_flow):
        snap = metrics.snapshot()
        for counter in ("flow.runs", "route.full_routes",
                        "route.nets_routed", "sta.full_runs",
                        "sta.arc_propagations", "sta.inc.updates",
                        "place.factorizations", "place.levels"):
            assert snap["counters"].get(counter, 0) > 0, counter
        assert "sta.inc.frontier" in snap["stats"]
        assert "place.factor_s" in snap["stats"]

    def test_mls_route_replays_the_baseline(self, traced_flow):
        _, records = traced_flow
        baseline, mls = by_name(records)["route.all"]
        assert baseline["attrs"]["diff"] is False
        attrs = mls["attrs"]
        assert attrs["diff"] is True
        assert attrs["reused"] > 0
        assert attrs["reused"] + attrs["rerouted"] == attrs["nets"]
        assert attrs["changed"] <= attrs["rerouted"]


class TestTracingDeterminism:
    def test_rows_bit_identical_with_tracing_on(self, hetero_tech):
        baseline = run_flow(tiny_factory, hetero_tech,
                            TEST_SEED, fast_config("sota"))
        trace.enable()
        trace.reset()
        try:
            traced = run_flow(tiny_factory, hetero_tech,
                              TEST_SEED, fast_config("sota"))
        finally:
            trace.disable()
            trace.reset()
        row_a = baseline.result_row()
        row_b = traced.result_row()
        assert row_a == row_b


class TestCliRoundTrip:
    def test_flow_trace_metrics_files(self, tmp_path, capsys):
        from repro.cli import main
        jsonl = tmp_path / "run.jsonl"
        mjson = tmp_path / "run-metrics.json"
        # A seed no other test uses, so the harness flow cache misses
        # and the run actually executes (and emits spans).
        code = main(["flow", "--benchmark", "maeri16_hetero",
                     "--selector", "none", "--seed", "20250806",
                     "--trace", str(jsonl), "--metrics", str(mjson)])
        assert code == 0
        out = capsys.readouterr().out
        assert "wns_ps" in out
        assert f"wrote metrics to {mjson}" in out

        summary = validate_trace_jsonl(jsonl)
        assert summary["spans"] > 0
        names = set()
        with open(jsonl, encoding="utf-8") as fh:
            for line in fh:
                names.add(json.loads(line)["name"])
        assert {"flow", "flow.prepare", "route.all", "flow.select",
                "sta.update_routing"} <= names
        chrome = chrome_trace_path(jsonl)
        assert validate_chrome_trace(chrome)["events"] == summary["spans"]
        msummary = validate_metrics(mjson)
        assert msummary["counters"] > 0

    def test_log_level_silences_info(self, capsys):
        from repro.cli import main
        assert main(["list", "--log-level", "warning"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""


class TestHistogram:
    def test_bucket_bound_is_le_inclusive(self):
        from repro.obs.histogram import BUCKET_BOUNDS, Histogram, \
            bucket_label
        hist = Histogram()
        bound = BUCKET_BOUNDS[5]
        hist.observe(bound)                 # exactly on the bound
        hist.observe(bound * 1.000001)      # just past it
        snap = hist.snapshot()
        assert snap["buckets"][bucket_label(bound)] == 1
        assert snap["buckets"][bucket_label(BUCKET_BOUNDS[6])] == 1

    def test_underflow_and_overflow(self):
        from repro.obs.histogram import BUCKET_BOUNDS, Histogram, \
            bucket_label
        hist = Histogram()
        hist.observe(0.0)                   # below the whole ladder
        hist.observe(BUCKET_BOUNDS[-1] * 2)  # past the top bound
        snap = hist.snapshot()
        assert snap["buckets"][bucket_label(BUCKET_BOUNDS[0])] == 1
        assert snap["buckets"]["+Inf"] == 1
        assert snap["min"] == 0.0
        assert snap["max"] == BUCKET_BOUNDS[-1] * 2

    def test_merge_is_exact(self):
        from repro.obs.histogram import Histogram
        values_a = [0.001, 0.5, 2.0]
        values_b = [0.002, 7.0, 9000.0]
        combined = Histogram()
        for v in values_a + values_b:
            combined.observe(v)
        a, b = Histogram(), Histogram()
        for v in values_a:
            a.observe(v)
        for v in values_b:
            b.observe(v)
        a.merge(b)
        assert a.snapshot() == combined.snapshot()

    def test_snapshot_roundtrip_and_cumulative(self):
        from repro.obs.histogram import BUCKET_BOUNDS, Histogram
        hist = Histogram()
        for v in (0.001, 0.001, 0.25, 30.0, 1e5):
            hist.observe(v)
        snap = hist.snapshot()
        # Sparse: only occupied buckets serialize.
        assert len(snap["buckets"]) == 4
        back = Histogram.from_snapshot(snap)
        assert back.snapshot() == snap
        cum = hist.cumulative()
        assert len(cum) == len(BUCKET_BOUNDS) + 1
        assert cum[-1] == ("+Inf", 5)
        counts = [c for _label, c in cum]
        assert counts == sorted(counts)     # cumulative never drops

    def test_empty_snapshot(self):
        from repro.obs.histogram import Histogram
        snap = Histogram().snapshot()
        assert snap == {"count": 0, "total": 0.0, "min": 0.0,
                        "max": 0.0, "buckets": {}}

    def test_registry_histograms_snapshot_and_validate(self, tmp_path):
        from repro.obs.schema import validate_histogram_snapshot
        reg = MetricsRegistry()
        reg.observe_hist("lat_s", 0.25)
        reg.observe_hist("lat_s", 4.0)
        # Below 1e-4 the bucket label takes an exponent, so sorting the
        # labels as strings would put it after "0.25"'s bucket.
        reg.observe_hist("lat_s", 2e-5)
        snap = reg.snapshot()["histograms"]["lat_s"]
        assert snap["count"] == 3
        validate_histogram_snapshot(snap, "lat_s")
        path = tmp_path / "m.json"
        reg.write_json(path)
        assert validate_metrics(path)["histograms"] == 1


class TestPrometheusExposition:
    def test_name_sanitization(self):
        from repro.obs.metrics import prometheus_name
        assert prometheus_name("service.latency_s") == \
            "repro_service_latency_s"
        assert prometheus_name("a-b c") == "repro_a_b_c"

    def test_render_validates_and_covers_all_families(self, tmp_path):
        from repro.obs.metrics import render_prometheus
        from repro.obs.schema import validate_prometheus_text
        reg = MetricsRegistry()
        reg.inc("flow.runs", 3)
        reg.set_gauge("service.inflight", 2)
        reg.add_time("place.factor_s", 0.5)
        reg.observe_hist("service.latency_s", 0.01)
        reg.observe_hist("service.latency_s", 3.0)
        text = render_prometheus(reg.snapshot())
        assert "# TYPE repro_flow_runs_total counter" in text
        assert "repro_flow_runs_total 3" in text
        assert "# TYPE repro_service_inflight gauge" in text
        assert "# TYPE repro_place_factor_s summary" in text
        assert "repro_place_factor_s_max" in text
        assert "# TYPE repro_service_latency_s histogram" in text
        assert 'repro_service_latency_s_bucket{le="+Inf"} 2' in text
        assert "repro_service_latency_s_count 2" in text
        path = tmp_path / "metrics.prom"
        path.write_text(text)
        info = validate_prometheus_text(path)
        assert info["samples"] > 0
        assert info["types"] >= 4

    def test_validator_rejects_nonmonotonic_buckets(self, tmp_path):
        from repro.obs.schema import validate_prometheus_text
        path = tmp_path / "bad.prom"
        path.write_text(
            "# TYPE repro_x histogram\n"
            'repro_x_bucket{le="1.0"} 5\n'
            'repro_x_bucket{le="+Inf"} 3\n'
            "repro_x_sum 1.0\n"
            "repro_x_count 3\n")
        with pytest.raises(ValueError, match="monoton|decreas"):
            validate_prometheus_text(path)

    def test_validator_rejects_garbage_sample(self, tmp_path):
        from repro.obs.schema import validate_prometheus_text
        path = tmp_path / "bad.prom"
        path.write_text("this is not exposition\n")
        with pytest.raises(ValueError):
            validate_prometheus_text(path)


class TestRotatingSink:
    def test_rotation_produces_generations(self, tmp_path):
        from repro.obs.tracer import RotatingTraceSink
        path = tmp_path / "t.jsonl"
        record = {"id": "x", "parent": None, "name": "s", "pid": 1,
                  "ts_us": 0, "dur_us": 1.0, "attrs": {}}
        line_len = len(json.dumps(record, sort_keys=True)) + 1
        sink = RotatingTraceSink(path, max_bytes=line_len * 3,
                                 backups=2)
        for _ in range(8):
            sink.write(record)
        sink.close()
        assert sink.records_written == 8
        # 8 records at 3 per generation: live file 2, .1 and .2 full,
        # oldest generation dropped at the cap.
        assert len(path.read_text().splitlines()) == 2
        assert len((tmp_path / "t.jsonl.1").read_text()
                   .splitlines()) == 3
        assert len((tmp_path / "t.jsonl.2").read_text()
                   .splitlines()) == 3
        assert not (tmp_path / "t.jsonl.3").exists()

    def test_streaming_spans_bypass_memory(self, tmp_path):
        from repro.obs.schema import validate_trace_jsonl
        from repro.obs.tracer import RotatingTraceSink
        path = tmp_path / "stream.jsonl"
        trace.enable()
        trace.reset()
        trace.attach_sink(RotatingTraceSink(path))
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        sink = trace.detach_sink()
        assert sink.records_written == 2
        assert trace.records == []          # nothing buffered
        assert validate_trace_jsonl(path)["spans"] == 2


class TestRequestIds:
    def test_spans_carry_pinned_request(self):
        tr = Tracer()
        tr.enable()
        tr.set_request("req-7")
        with tr.span("serve"):
            pass
        tr.set_request(None)
        with tr.span("idle"):
            pass
        recs = by_name(tr.records)
        assert recs["serve"][0]["attrs"]["req"] == "req-7"
        assert "req" not in recs["idle"][0]["attrs"]

class TestRecorderDeterminism:
    def test_rows_bit_identical_with_recorder_armed(self, hetero_tech,
                                                    tmp_path):
        from repro.obs.recorder import flight
        baseline = run_flow(tiny_factory, hetero_tech,
                            TEST_SEED, fast_config("sota"))
        flight.arm(tmp_path)
        try:
            recorded = run_flow(tiny_factory, hetero_tech,
                                TEST_SEED,
                                fast_config("sota"))
            assert any(e["type"] == "span" for e in flight.events())
        finally:
            flight.disarm()
        row_a = baseline.result_row()
        row_b = recorded.result_row()
        assert row_a == row_b
