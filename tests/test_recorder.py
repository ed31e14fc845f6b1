"""Flight-recorder tests: ring bounding, dump contents and schema,
crash/SIGUSR1 triggers (including a subprocess raising mid-stage)."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.recorder import FlightRecorder, flight
from repro.obs.schema import validate_flight_dump
from repro.obs.tracer import trace

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def _clean_recorder():
    """Never leak an armed singleton across tests."""
    yield
    if flight.armed:
        flight.disarm()


class TestRing:
    def test_bounded_at_capacity(self):
        rec = FlightRecorder(capacity=8)
        for i in range(20):
            rec.record_sample("tick", float(i))
        events = rec.events()
        assert len(events) == 8
        assert events[0]["value"] == 12.0       # oldest kept
        assert events[-1]["value"] == 19.0

    def test_event_shapes(self):
        rec = FlightRecorder()
        rec.record_sample("lat", 0.5, req="req-1")
        rec.record_note("shutting down", reason="test")
        sample, note = rec.events()
        assert sample["type"] == "sample"
        assert sample["attrs"] == {"req": "req-1"}
        assert note["type"] == "note"
        assert note["message"] == "shutting down"

    def test_armed_recorder_mirrors_spans_while_tracing_disabled(
            self, tmp_path):
        assert not trace.enabled
        flight.arm(tmp_path)
        with trace.span("stage.place"):
            pass
        spans = [e for e in flight.events() if e["type"] == "span"]
        assert [s["name"] for s in spans] == ["stage.place"]
        flight.disarm()
        with trace.span("after"):
            pass
        assert flight.events() == []            # disarm clears + stops


class TestDump:
    def test_dump_validates_against_schema(self, tmp_path):
        rec = FlightRecorder()
        rec.arm(tmp_path)
        rec.record_sample("service.flow_serve_s", 1.25, req="req-7")
        rec.record_note("mid-flight")
        path = rec.dump("manual")
        info = validate_flight_dump(path)
        assert info["events"] == 2
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.flight/2"
        assert payload["reason"] == "manual"
        assert payload["pid"] == os.getpid()
        assert "exception" not in payload
        assert set(payload["metrics"]) >= {"counters", "histograms"}
        rec.disarm()

    def test_crash_dump_carries_traceback(self, tmp_path):
        rec = FlightRecorder()
        rec.arm(tmp_path)
        try:
            raise RuntimeError("boom in place")
        except RuntimeError as exc:
            path = rec.crash_dump("test.crash", exc)
        assert path is not None
        validate_flight_dump(path)
        payload = json.loads(path.read_text())
        assert payload["exception"]["type"] == "RuntimeError"
        assert "boom in place" in payload["exception"]["traceback"]
        rec.disarm()

    def test_crash_dump_noop_when_disarmed(self):
        rec = FlightRecorder()
        assert rec.crash_dump("x", RuntimeError("y")) is None

    def test_distinct_filenames_per_dump(self, tmp_path):
        rec = FlightRecorder()
        rec.arm(tmp_path)
        paths = {rec.dump("a"), rec.dump("b")}
        assert len(paths) == 2
        rec.disarm()


class TestTriggers:
    def test_sigusr1_dumps_without_stopping(self, tmp_path):
        flight.arm(tmp_path, install_signal=True)
        flight.record_note("alive")
        os.kill(os.getpid(), signal.SIGUSR1)
        dumps = sorted(tmp_path.glob("flight-*.json"))
        assert len(dumps) == 1
        payload = json.loads(dumps[0].read_text())
        assert payload["reason"] == "sigusr1"
        assert flight.armed                     # still recording

    def test_unhandled_crash_mid_stage_dumps(self, tmp_path):
        """A subprocess arms the recorder with the excepthook installed
        and dies mid-stage; a valid dump must appear on disk."""
        script = (
            "from repro.obs.recorder import flight\n"
            "from repro.obs.tracer import trace\n"
            "import sys\n"
            "flight.arm(sys.argv[1], install_excepthook=True)\n"
            "with trace.span('flow'):\n"
            "    with trace.span('flow.place'):\n"
            "        pass\n"
            "raise RuntimeError('died mid-route')\n"
        )
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0             # crash still propagates
        assert "died mid-route" in proc.stderr
        dumps = sorted(tmp_path.glob("flight-*.json"))
        assert len(dumps) == 1
        info = validate_flight_dump(dumps[0])
        assert info["spans"] == 2               # the ring caught them
        payload = json.loads(dumps[0].read_text())
        assert payload["reason"] == "excepthook"
        assert payload["exception"]["type"] == "RuntimeError"
