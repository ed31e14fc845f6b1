"""Async flow-daemon concurrency suite (in-process daemon).

Each test boots a real :class:`FlowService` on a background thread —
real unix socket, real asyncio loop, real executor — against a
throwaway artifact store, then hammers it with blocking
:class:`ServiceClient` threads exactly as external processes would.

Contracts locked here:

* N concurrent *identical* submissions run the flow exactly once —
  every arrival either joins the in-flight future (dedup) or replays
  the finished artifact, observable through the ``service.*`` metrics
  the ``status`` op reports;
* distinct requests are independent — two seeds, two computes, two
  report digests — and so are a ``save_report`` request and a plain
  one of the same cell: the dedup key is the resolved flow;
* a worker that crashes mid-flow surfaces the error to its waiters,
  leaves **no** flow artifact in the store (completed prepare-stage
  artifacts are fine — they are whole), clears the in-flight table,
  and the daemon keeps serving;
* socket hygiene — a stale socket file is reclaimed, a live one
  refuses a second daemon;
* a flow request with an unknown or mistyped field is refused with a
  :class:`ServiceError` naming the field, and one with a value no flow
  can run (unknown benchmark, selector or DFT strategy, DFT without
  scan) with an error naming the value — before dedup or queueing, so
  neither waits behind a running job;
* ``service start --detach`` hands its ``--trace`` and ``--metrics``
  files to the daemon child;
* every protocol line gets an answer: one that is not a JSON object,
  or is longer than the stream limit, gets an error reply and the
  connection keeps serving.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import socket
import tempfile
import threading
import time

import pytest

from repro.obs import metrics
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.daemon import (FlowService, ServiceConfig,
                                  ServiceError, start_in_thread)

BENCH = "maeri16_hetero"


class _Counters:
    """Delta view over the process-global metrics registry."""

    _NAMES = ("service.flow_computes", "service.dedup_hits",
              "service.flow_summary_hits", "service.flow_report_hits",
              "service.errors", "store.puts.flow.report",
              "store.puts.flow.summary", "store.hits.prepare.design")

    def __init__(self):
        self._base = {n: metrics.counter(n) for n in self._NAMES}

    def delta(self, name: str) -> float:
        return metrics.counter(name) - self._base[name]

    def replays(self) -> float:
        return (self.delta("service.dedup_hits")
                + self.delta("service.flow_summary_hits")
                + self.delta("service.flow_report_hits"))


class _Daemon:
    def __init__(self, handle, socket_path, store_root):
        self.handle = handle
        self.socket_path = socket_path
        self.store_root = store_root

    def client(self, timeout: float = 300.0) -> ServiceClient:
        return ServiceClient(self.socket_path, timeout=timeout)

    def flow_blobs(self) -> list:
        objects = os.path.join(self.store_root, "objects")
        found = []
        for sub, _dirs, files in os.walk(objects):
            found += [f for f in files if f.startswith("flow.")]
        return found


def _start(tmp_path) -> _Daemon:
    # Unix socket paths are length-limited (~104 bytes); pytest tmp
    # dirs can blow that, so sockets live in their own short dir.
    sockdir = tempfile.mkdtemp(prefix="rsvc-", dir="/tmp")
    store_root = str(tmp_path / "store")
    config = ServiceConfig(socket_path=os.path.join(sockdir, "s.sock"),
                           store_root=store_root)
    handle = start_in_thread(config)
    return _Daemon(handle, config.socket_path, store_root)


@pytest.fixture()
def daemon(tmp_path):
    running = _start(tmp_path)
    yield running
    running.handle.stop()
    shutil.rmtree(os.path.dirname(running.socket_path),
                  ignore_errors=True)


@pytest.fixture()
def held_job(daemon, monkeypatch):
    """A plain ``none`` flow held on the flow thread until the test
    sets the yielded gate; yields ``(gate, responses)``, where
    *responses* receives the held request's reply."""
    import repro.service.stages as stages

    real = stages.run_flow_stored
    entered, gate = threading.Event(), threading.Event()

    def gated(*args, **kwargs):
        entered.set()
        gate.wait(timeout=120)
        return real(*args, **kwargs)

    monkeypatch.setattr(stages, "run_flow_stored", gated)
    responses: list = []
    submitter = threading.Thread(target=lambda: responses.append(
        daemon.client().submit_flow(benchmark=BENCH, selector="none")))
    submitter.start()
    assert entered.wait(timeout=60)
    try:
        yield gate, responses
    finally:
        gate.set()
        submitter.join(timeout=300)


def _submit_many(daemon: _Daemon, payloads: list[dict]) -> list[dict]:
    """Fire all payloads at the daemon simultaneously (one thread
    each, barrier-released) and collect the responses in order."""
    responses: list = [None] * len(payloads)
    barrier = threading.Barrier(len(payloads))

    def worker(idx: int, payload: dict) -> None:
        client = daemon.client()
        barrier.wait()
        responses[idx] = client.submit_flow(**payload)

    threads = [threading.Thread(target=worker, args=(i, p))
               for i, p in enumerate(payloads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    assert all(r is not None for r in responses)
    return responses


class TestRequestParsing:
    def test_explicit_seed_zero_is_honored(self):
        """Regression: ``or``-defaulting silently replaced an explicit
        seed=0 with the default experiment seed."""
        from repro.harness.designs import DEFAULT_EXPERIMENT_SEED
        from repro.service.daemon import build_flow_config

        assert DEFAULT_EXPERIMENT_SEED != 0
        _, _, seed = build_flow_config({"benchmark": BENCH, "seed": 0})
        assert seed == 0
        _, _, defaulted = build_flow_config({"benchmark": BENCH})
        assert defaulted == DEFAULT_EXPERIMENT_SEED

    @pytest.mark.parametrize("field,value", [
        pytest.param("select_batch", True, id="select_batch"),
        pytest.param("selecter", True, id="selecter"),
        pytest.param("workers", 2, id="workers"),
    ])
    def test_unknown_field_is_refused(self, field, value):
        """Regression: unknown fields were silently dropped and the
        default flow ran instead — a removed knob from a stale client
        (``select_batch``, ``workers``) or a typo."""
        from repro.service.daemon import build_flow_config

        with pytest.raises(ServiceError, match=field):
            build_flow_config({"op": "flow", "benchmark": BENCH,
                               field: value})

    def test_cli_run_and_request_share_one_store_entry(self, tmp_path,
                                                       capsys):
        """``repro flow --store S`` and a service request for the same
        cell build one FlowConfig, so the request replays the CLI's
        stored flow instead of computing it again."""
        from repro.cli import main
        from repro.service import ArtifactStore
        from repro.service.daemon import build_flow_config
        from repro.service.stages import run_flow_stored

        store = tmp_path / "store"
        assert main(["flow", "--benchmark", BENCH, "--selector", "none",
                     "--store", str(store)]) == 0
        capsys.readouterr()
        spec, config, seed = build_flow_config(
            {"benchmark": BENCH, "selector": "none"})
        _, _, cached = run_flow_stored(spec.factory, spec.tech(), seed,
                                       config, ArtifactStore(store),
                                       need_report=False)
        assert cached

    @pytest.mark.parametrize("freq", [0, 0.0, -100.0])
    def test_non_positive_freq_is_refused(self, freq):
        """Regression: ``or``-defaulting served the benchmark clock for
        an explicit freq_mhz=0; only None means "default"."""
        from repro.harness.designs import get_benchmark
        from repro.service.daemon import build_flow_config

        with pytest.raises(ServiceError, match="freq_mhz"):
            build_flow_config({"benchmark": BENCH, "freq_mhz": freq})
        _, config, _ = build_flow_config({"benchmark": BENCH,
                                          "freq_mhz": None})
        assert config.target_freq_mhz == \
            get_benchmark(BENCH).target_freq_mhz
        _, config, _ = build_flow_config({"benchmark": BENCH,
                                          "freq_mhz": 777.0})
        assert config.target_freq_mhz == 777.0
        _, config, _ = build_flow_config({"benchmark": BENCH,
                                          "freq_mhz": 900})
        assert config.target_freq_mhz == 900.0

    @pytest.mark.parametrize("field,value", [
        ("seed", 1.9), ("seed", True), ("seed", "7"),
        ("freq_mhz", True), ("freq_mhz", "abc"), ("freq_mhz", "900"),
        ("freq_mhz", float("inf")),
        pytest.param("freq_mhz", 10 ** 400, id="freq_mhz-huge-int"),
        ("with_scan", "false"), ("with_scan", 1),
        ("save_report", "no"),
        pytest.param("benchmark", [BENCH], id="benchmark-list"),
        ("selector", 1), ("dft_strategy", 7),
    ])
    def test_mistyped_number_is_refused(self, field, value):
        """Regression: mistyped fields were coerced silently or failed
        late — seed 1.9 ran seed 1, freq_mhz true ran a 1 MHz flow,
        "abc" raised a bare ValueError, Infinity passed the > 0 check
        and an int too large for a float raised OverflowError;
        with_scan "false" ran a scan flow (``bool("false")``),
        save_report "no" wrote the report, and a list benchmark raised
        a bare TypeError in the dedup dict."""
        from repro.service.daemon import build_flow_config

        with pytest.raises(ServiceError, match=field):
            build_flow_config({"benchmark": BENCH, field: value})


class TestProtocol:
    def test_every_line_gets_an_answer(self, daemon):
        """Regression: a line that was JSON but not an object, or
        longer than the stream limit, closed the connection with no
        reply and an unhandled-exception traceback."""
        counters = _Counters()
        overlong = b'{"op": "ping", "pad": "' + b"x" * 100_000 + b'"}'
        replies = []
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(60.0)
            sock.connect(daemon.socket_path)
            stream = sock.makefile("rb")
            for line in (b"[1, 2]", b'"flow"', overlong,
                         b'{"op": "ping"}'):
                sock.sendall(line + b"\n")
                replies.append(json.loads(stream.readline()))
        assert [r["ok"] for r in replies] == [False, False, False, True]
        assert "JSON object" in replies[0]["error"]
        assert "stream limit" in replies[2]["error"]
        assert replies[3]["op"] == "ping"
        assert counters.delta("service.errors") == 3

    def test_ping_status_shutdown(self, daemon):
        client = daemon.client()
        pong = client.ping()
        assert pong["ok"] and pong["pid"] == os.getpid()
        status = client.status()
        assert status["ok"]
        assert status["queue_depth"] == 0
        assert status["inflight"] == 0
        assert status["store"]["entries"] == 0
        assert "service.requests" in status["metrics"]["counters"]

    def test_unknown_op_is_an_error_not_a_crash(self, daemon):
        client = daemon.client()
        counters = _Counters()
        response = client.request({"op": "frobnicate"})
        assert not response["ok"]
        assert "frobnicate" in response["error"]
        assert counters.delta("service.errors") == 1
        assert client.ping()["ok"]      # daemon survived

    def test_bad_flow_request_is_an_error(self, daemon):
        client = daemon.client()
        response = client.submit_flow(benchmark="no_such_benchmark")
        assert not response["ok"]
        assert "no_such_benchmark" in response["error"]
        assert client.ping()["ok"]

    @pytest.mark.parametrize("extra", [{"selecter": "none"},
                                       {"select_batch": 4},
                                       {"freq_mhz": 0}])
    def test_invalid_flow_request_refused_before_queueing(self, daemon,
                                                          extra):
        """An unknown field or an explicit freq_mhz <= 0 fails the
        request at the boundary: no compute, no dedup entry."""
        client = daemon.client()
        counters = _Counters()
        payload = {"benchmark": BENCH, "selector": "none", **extra}
        response = client.submit_flow(**payload)
        assert not response["ok"]
        assert "ServiceError" in response["error"]
        assert next(iter(extra)) in response["error"]
        assert counters.delta("service.errors") == 1
        assert counters.delta("service.flow_computes") == 0
        assert client.status()["inflight"] == 0

    def test_bad_values_refused_while_a_job_runs(self, daemon, held_job):
        """Regression: an unknown benchmark, selector or DFT strategy,
        or DFT without scan, was only resolved on the flow thread, so
        the request waited behind the running job before it was
        refused."""
        gate, _ = held_job
        counters = _Counters()
        client = daemon.client(timeout=10.0)
        for extra, named in [
                ({"benchmark": "no_such_bench"}, "no_such_bench"),
                ({"selector": "no_such_selector"}, "no_such_selector"),
                ({"with_scan": True, "dft_strategy": "no-such-dft"},
                 "no-such-dft"),
                ({"dft_strategy": "wire-based"}, "with_scan")]:
            response = client.submit_flow(
                **{"benchmark": BENCH, "selector": "none", **extra})
            assert not response["ok"]
            assert named in response["error"]
        assert not gate.is_set()
        assert counters.delta("service.errors") == 4
        assert counters.delta("service.flow_computes") == 0
        assert client.status()["inflight"] == 1


class TestDedup:
    @pytest.mark.parametrize("storms", [1, 3])
    def test_identical_submissions_compute_once(self, daemon, storms):
        """*storms* back-to-back storms of 8 identical submissions: the
        first races the cold flow, later ones hit the warm store."""
        counters = _Counters()
        n = 8
        payload = dict(benchmark=BENCH, selector="none")
        responses = []
        for _ in range(storms):
            responses += _submit_many(daemon, [payload] * n)
        assert all(r["ok"] for r in responses)
        digests = {r["report_digest"] for r in responses}
        assert len(digests) == 1
        rows = [r["row"] for r in responses]
        assert all(row == rows[0] for row in rows)
        # The flow ran exactly once; every other arrival either
        # joined the in-flight future or replayed the artifact.
        assert counters.delta("service.flow_computes") == 1
        assert counters.replays() == storms * n - 1
        status = daemon.client().status()
        assert status["inflight"] == 0
        assert status["queue_depth"] == 0

    def test_save_report_request_not_deduped_onto_plain_one(
            self, daemon, held_job):
        """Regression: the dedup key ignored ``save_report``, so a
        ``save_report`` request that arrived while an identical plain
        one ran joined it and came back without its artifact paths."""
        gate, plain = held_job
        saved: list = []
        submitter = threading.Thread(target=lambda: saved.append(
            daemon.client().submit_flow(benchmark=BENCH, selector="none",
                                        save_report=True)))
        submitter.start()
        client = daemon.client()
        for _ in range(600):            # until the daemon has it
            waiting = sum(r["waiters"]
                          for r in client.status()["inflight_requests"])
            if waiting == 2:
                break
            time.sleep(0.05)
        gate.set()
        submitter.join(timeout=300)
        assert plain[0]["ok"] and "artifacts" not in plain[0]
        response = saved[0]
        assert response["ok"] and not response["deduped"]
        assert response["report_digest"] == plain[0]["report_digest"]
        assert set(response["artifacts"]) == {"report", "summary"}
        assert all(os.path.exists(path)
                   for path in response["artifacts"].values())

    def test_distinct_requests_independent(self, daemon):
        counters = _Counters()
        responses = _submit_many(daemon, [
            dict(benchmark=BENCH, selector="none", seed=1),
            dict(benchmark=BENCH, selector="none", seed=2),
        ])
        assert all(r["ok"] for r in responses)
        assert counters.delta("service.flow_computes") == 2
        assert counters.delta("service.dedup_hits") == 0
        assert responses[0]["report_digest"] != \
            responses[1]["report_digest"]

    def test_warm_resubmission_replays_artifact(self, daemon):
        counters = _Counters()
        payload = dict(benchmark=BENCH, selector="none")
        cold = daemon.client().submit_flow(**payload)
        warm = daemon.client().submit_flow(**payload)
        assert not cold["cached"] and warm["cached"]
        assert warm["report_digest"] == cold["report_digest"]
        assert warm["row"] == cold["row"]
        assert counters.delta("service.flow_computes") == 1
        assert counters.delta("service.flow_summary_hits") == 1

    @pytest.mark.slow
    def test_mixed_storm(self, daemon):
        """16 mixed submissions on the one flow thread: three distinct
        cells, each computed exactly once, everything else
        deduped/replayed."""
        counters = _Counters()
        cells = [dict(benchmark=BENCH, selector="none", seed=s)
                 for s in (1, 2, 3)]
        payloads = [cells[i % 3] for i in range(16)]
        responses = _submit_many(daemon, payloads)
        assert all(r["ok"] for r in responses)
        assert counters.delta("service.flow_computes") == 3
        assert counters.replays() == 16 - 3
        by_seed = {}
        for payload, response in zip(payloads, responses):
            by_seed.setdefault(payload["seed"],
                               set()).add(response["report_digest"])
        assert all(len(d) == 1 for d in by_seed.values())
        assert len(set().union(*by_seed.values())) == 3


class TestCrashRecovery:
    def test_crashed_flow_leaves_no_flow_artifact(self, daemon,
                                                  monkeypatch):
        import repro.core.flow as flow_mod

        def exploding_route(*args, **kwargs):
            raise RuntimeError("simulated mid-flow crash")

        # run_flow prepares first (storing every prepare artifact),
        # then crashes in its baseline route.
        monkeypatch.setattr(flow_mod, "route_with_mls", exploding_route)
        counters = _Counters()
        response = daemon.client().submit_flow(benchmark=BENCH,
                                               selector="none")
        assert not response["ok"]
        assert "simulated mid-flow crash" in response["error"]
        # No flow.report / flow.summary blob may exist — crashes must
        # never publish partial results.
        assert daemon.flow_blobs() == []
        assert counters.delta("store.puts.flow.report") == 0
        assert counters.delta("store.puts.flow.summary") == 0
        status = daemon.client().status()
        assert status["ok"] and status["inflight"] == 0
        # The daemon recovers: un-patch, resubmit, and the completed
        # prepare artifacts from before the crash are reused.
        monkeypatch.undo()
        retry = daemon.client().submit_flow(benchmark=BENCH,
                                            selector="none")
        assert retry["ok"] and not retry["cached"]
        assert counters.delta("service.flow_computes") == 2
        assert counters.delta("store.hits.prepare.design") == 1
        assert len(daemon.flow_blobs()) == 2

    def test_crash_surfaces_to_every_deduped_waiter(self, daemon,
                                                    monkeypatch):
        import repro.service.stages as stages

        release = threading.Event()

        def stalling_crash(*args, **kwargs):
            release.wait(timeout=30)
            raise RuntimeError("deferred crash")

        monkeypatch.setattr(stages, "run_flow_stored", stalling_crash)
        payload = dict(benchmark=BENCH, selector="none")
        responses: list = [None] * 3
        barrier = threading.Barrier(4)

        def submit(idx):
            client = daemon.client()
            barrier.wait()
            responses[idx] = client.submit_flow(**payload)

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(3)]
        for t in threads:
            t.start()
        barrier.wait()                  # all three are in flight
        release.set()
        for t in threads:
            t.join(timeout=60)
        assert all(r is not None and not r["ok"] for r in responses)
        assert all("deferred crash" in r["error"] for r in responses)
        assert daemon.client().status()["inflight"] == 0


class TestSocketHygiene:
    def test_stale_socket_reclaimed(self, tmp_path):
        sockdir = tempfile.mkdtemp(prefix="rsvc-", dir="/tmp")
        socket_path = os.path.join(sockdir, "s.sock")
        open(socket_path, "wb").close()     # dead leftover
        config = ServiceConfig(socket_path=socket_path,
                               store_root=str(tmp_path / "store"))
        handle = start_in_thread(config)
        try:
            assert ServiceClient(socket_path).ping()["ok"]
        finally:
            handle.stop()
            shutil.rmtree(sockdir, ignore_errors=True)

    def test_live_socket_refuses_second_daemon(self, daemon, tmp_path):
        config = ServiceConfig(socket_path=daemon.socket_path,
                               store_root=str(tmp_path / "store2"))
        with pytest.raises(ServiceError, match="already running"):
            asyncio.run(FlowService(config).serve())
        # ... and the original daemon is unharmed.
        assert daemon.client().ping()["ok"]

    def test_shutdown_removes_socket(self, tmp_path):
        running = _start(tmp_path)
        sockdir = os.path.dirname(running.socket_path)
        try:
            assert running.client().shutdown()["ok"]
            running.handle.thread.join(timeout=30)
            assert not running.handle.thread.is_alive()
            assert not os.path.exists(running.socket_path)
            with pytest.raises(ServiceUnavailable):
                ServiceClient(running.socket_path, timeout=1.0).ping()
        finally:
            running.handle.stop()
            shutil.rmtree(sockdir, ignore_errors=True)


class TestTelemetry:
    """Protocol-v2 observability: health/metrics ops, request ids,
    per-op latency histograms, and flight-recorder visibility."""

    def test_health_op(self, daemon):
        health = daemon.client().health()
        assert health["ok"]
        assert health["status"] == "ok"
        assert health["pid"] == os.getpid()      # in-process daemon
        assert health["protocol"] == 4
        assert health["uptime_s"] >= 0
        assert health["inflight"] == 0

    def test_metrics_op_is_valid_exposition(self, daemon, tmp_path):
        from repro.obs.schema import validate_prometheus_text
        client = daemon.client()
        client.ping()                            # move a latency hist
        text = client.metrics_prometheus()
        path = tmp_path / "scrape.prom"
        path.write_text(text)
        info = validate_prometheus_text(path)
        assert info["samples"] > 0
        assert "# TYPE repro_service_latency_s histogram" in text
        # Per-op breakdown: the pings we just made have their own
        # histogram family.
        assert "repro_service_latency_s_ping_bucket" in text

    def test_flow_response_carries_request_id(self, daemon):
        response = daemon.client().submit_flow(
            benchmark=BENCH, selector="none", seed=411)
        assert response["ok"]
        assert response["request_id"].startswith("req-")
        # A warm replay of the same request is a new request id.
        again = daemon.client().submit_flow(
            benchmark=BENCH, selector="none", seed=411)
        assert again["request_id"] != response["request_id"]

    def test_status_reports_inflight_and_flight_recorder(self, daemon):
        status = daemon.client().status()
        assert status["ok"]
        assert status["inflight_requests"] == []     # idle daemon
        assert status["flight"]["armed"]
        assert status["flight"]["dumps"] >= 0
        assert "flight" in status["flight"]["dir"]

    def test_flow_latency_lands_in_histograms(self, daemon):
        daemon.client().submit_flow(benchmark=BENCH, selector="none",
                                    seed=412)
        snap = metrics.snapshot()["histograms"]
        assert snap["service.latency_s"]["count"] > 0
        assert snap["service.flow_serve_s"]["count"] > 0

    def test_cold_job_collects_once_and_reports_peak_rss(self, daemon):
        """A cold job runs paused and then frees its dropped design with
        one full collection on the flow thread; a summary hit holds no
        report and collects nothing.  ``status`` reports the peak RSS."""
        full: list[int] = []         # objects freed by each full pass

        def hook(phase, info):
            if phase == "stop" and info["generation"] == 2 \
                    and threading.current_thread().name \
                    .startswith("repro-flow"):
                full.append(info["collected"])

        client = daemon.client()
        gc.callbacks.append(hook)
        try:
            cold = client.submit_flow(benchmark=BENCH, selector="none",
                                      seed=413)
            after_cold = list(full)
            warm = client.submit_flow(benchmark=BENCH, selector="none",
                                      seed=413)
        finally:
            gc.callbacks.remove(hook)
        assert cold["ok"] and not cold["cached"]
        assert warm["ok"] and warm["cached"]
        assert len(after_cold) == 1
        assert after_cold[0] > 0                 # the dropped design
        assert full == after_cold
        gauges = client.status()["metrics"]["gauges"]
        assert gauges["service.peak_rss_mb"] > 0


class TestDetachedStart:
    def test_trace_and_metrics_go_to_the_child(self, tmp_path,
                                               monkeypatch):
        """Regression: ``service start --detach --metrics PATH`` left
        the flag off the child's argv and wrote the launcher's empty
        registry to PATH at once."""
        import subprocess

        import repro.service.client as client_mod
        from repro.cli import main

        launched = []

        class FakeChild:
            pid = 4242

            def __init__(self, argv, **kwargs):
                launched.append(argv)

        monkeypatch.setattr(subprocess, "Popen", FakeChild)
        monkeypatch.setattr(client_mod, "wait_for_service",
                            lambda *args, **kwargs: None)
        metrics_path = tmp_path / "daemon-metrics.json"
        trace_path = tmp_path / "daemon.jsonl"
        assert main(["service", "start", "--detach",
                     "--socket", str(tmp_path / "s.sock"),
                     "--store", str(tmp_path / "store"),
                     "--metrics", str(metrics_path),
                     "--trace", str(trace_path)]) == 0
        [argv] = launched
        flags = dict(zip(argv, argv[1:]))
        assert flags["--metrics"] == str(metrics_path)
        assert flags["--trace"] == str(trace_path)
        assert not metrics_path.exists()
        assert not trace_path.exists()
