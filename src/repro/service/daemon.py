"""Flow-as-a-service: an asyncio job daemon over a unix socket.

One daemon process owns an :class:`ArtifactStore` and serves flow
requests from any number of clients.  The protocol is one JSON object
per line in both directions; ops:

``ping``      liveness probe;
``health``    minimal liveness + uptime (no metrics snapshot: safe to
              poll at high frequency);
``status``    queue depth, in-flight requests (with request ids), run
              metrics, store stats;
``metrics``   the full metrics registry rendered as Prometheus text
              exposition (format 0.0.4) — counters, gauges, stats
              summaries and the per-request latency histograms;
``flow``      run (or replay) one benchmark flow; responds with the
              table row, the report digest, timing breakdown and —
              on request — the on-disk paths of the pickled
              :class:`FlowReport` artifacts;
``shutdown``  drain nothing, stop now (the store is crash-safe:
              every artifact write is atomic).

Every line gets one answer: a line that is not JSON, not a JSON object
or longer than the stream limit gets ``{"ok": false, "error": ...}``,
counts in ``service.errors``, and the connection keeps serving.

Each ``flow`` request is resolved once, in the event loop, into its
``(spec, FlowConfig, seed)`` by :func:`build_flow_config`.  A request
with an unknown or mistyped field, or a value no flow can run (an
unknown benchmark, selector or DFT strategy, DFT without scan), is
refused there, before dedup or queueing, so it never waits behind a
running job.  Resolved flows queue FIFO on an :class:`asyncio.Queue`
and run one at a time on one flow thread, so the event loop keeps
accepting connections.  **Identical concurrent requests are
deduplicated** on the resolved flow — benchmark, seed, ``FlowConfig``
and ``save_report``, not the request's spelling: the second arrival
awaits the first one's future instead of enqueueing, so N clients
submitting the same cell of a sweep matrix cost one compute.  Distinct
requests proceed independently.  Completed results live in the store,
so dedup only needs to cover the in-flight window.

Every request runs under a ``service.request`` span and feeds the
process-wide :mod:`repro.obs` metrics (``service.requests``,
``service.dedup_hits``, ``service.flow_computes``,
``service.flow_summary_hits``, ``store.*``), which ``status`` reports
back to clients — the concurrency test suite asserts dedup through
exactly this surface.  Telemetry additions on top of that:

* every dispatch is timed into the ``service.latency_s`` (and
  per-op ``service.latency_s.<op>``) fixed-bucket **histograms**,
  exported by the ``metrics`` op;
* flow requests get a daemon-unique **request id** (``req-<seq>``)
  that is pinned onto the tracer for the job's flow thread, so every
  span the job emits carries ``req=<id>`` and traces group by
  request;
* the **flight recorder** is armed for the daemon's lifetime: a
  bounded ring of recent spans dumped to ``<store_root>/flight/`` on
  unhandled exceptions, failed flow jobs, or ``SIGUSR1``;
* after every job the ``service.peak_rss_mb`` gauge holds the
  process's peak resident set size, so ``status`` shows whether a
  backlog of jobs leaves memory behind.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import resource
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from threading import Thread

from repro.core.flow import collector_paused
from repro.errors import FlowError
from repro.obs import flight, get_logger, metrics, trace
from repro.obs.metrics import render_prometheus
from repro.service.store import ArtifactStore, DEFAULT_BUDGET_BYTES

log = get_logger("repro.service.daemon")

#: Protocol revision, echoed by ``ping``/``status``.  2 added the
#: ``health``/``metrics`` ops, request ids and latency histograms.  3
#: removed the ``workers`` request field (the flow runs in one
#: process), so a request that still carries it is refused as an
#: unknown field.  4 runs flows on one thread, so the ``status``
#: reply no longer reports a worker count.
PROTOCOL_VERSION = 4

#: Every field a ``flow`` request may carry; anything else is refused
#: rather than silently dropped (a typo or a stale client's knob would
#: otherwise run — and cache — a different flow than the one asked for).
_FLOW_REQUEST_ALLOWED = frozenset((
    "op", "benchmark", "selector", "seed", "with_scan", "dft_strategy",
    "freq_mhz", "save_report"))


@dataclass(frozen=True)
class ServiceConfig:
    """Daemon deployment knobs."""

    socket_path: str
    store_root: str
    budget_bytes: int = DEFAULT_BUDGET_BYTES


class ServiceError(FlowError):
    """Daemon-level failure (bad request, socket in use...)."""


def _typed(value, kinds) -> bool:
    """*value* is an instance of *kinds* but not a bool (JSON ``true``
    would otherwise pass as the int 1)."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _check_flow_request(request: dict) -> None:
    """Raise :class:`ServiceError`, naming the field, for a ``flow``
    request with an unknown field, a ``benchmark``, ``selector`` or
    ``dft_strategy`` that is not a string, a ``with_scan`` or
    ``save_report`` that is not a boolean, a ``seed`` that is not an
    int, or a ``freq_mhz`` that is not a finite number > 0.  ``bool``
    is refused for the numbers; ``None`` means the default."""
    unknown = sorted(set(request) - _FLOW_REQUEST_ALLOWED)
    if unknown:
        raise ServiceError(
            f"unknown flow request field(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(_FLOW_REQUEST_ALLOWED))}")
    for name in ("benchmark", "selector", "dft_strategy"):
        value = request.get(name)
        if value is not None and not isinstance(value, str):
            raise ServiceError(f"{name} must be a string, got {value!r}")
    for name in ("with_scan", "save_report"):
        value = request.get(name)
        if value is not None and not isinstance(value, bool):
            raise ServiceError(f"{name} must be a boolean, got {value!r}")
    seed = request.get("seed")
    if seed is not None and not _typed(seed, int):
        raise ServiceError(f"seed must be an int, got {seed!r}")
    freq = request.get("freq_mhz")
    if freq is not None and not (_typed(freq, (int, float))
                                 and 0.0 < freq <= sys.float_info.max):
        raise ServiceError(
            f"freq_mhz must be a finite number > 0, got {freq!r}")


def _parse_request(line: bytes) -> dict:
    """One protocol line as a request object."""
    request = json.loads(line)
    if not isinstance(request, dict):
        raise ServiceError(f"a request must be a JSON object, got "
                           f"{type(request).__name__}")
    return request


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """The next protocol line (``b""`` at EOF).

    A line longer than the stream limit is drained through its newline
    and raised as a :class:`ServiceError`, so the connection can go on
    with the next line.
    """
    overlong = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            return b"" if overlong else exc.partial
        except asyncio.LimitOverrunError as exc:
            # Drop what is buffered and read on to the newline:
            # ``readline`` would clear a partly-arrived line and serve
            # its tail as the next request.
            overlong = True
            await reader.readexactly(exc.consumed)
            continue
        if overlong:
            raise ServiceError("request line exceeds the stream limit")
        return line


def build_flow_config(request: dict):
    """(spec, FlowConfig, seed) for one ``flow`` request.

    Raises :class:`ServiceError` naming a mistyped or unknown field
    (:func:`_check_flow_request`) and :class:`FlowError` naming a value
    no flow can run: an unknown benchmark, selector or DFT strategy,
    or DFT without scan."""
    from repro.harness.designs import (DEFAULT_EXPERIMENT_SEED,
                                       get_benchmark)

    _check_flow_request(request)
    spec = get_benchmark(request.get("benchmark", "maeri16_hetero"))
    # `or` would swallow an explicit seed=0 or freq_mhz=0; only None
    # means "default".
    seed = request.get("seed")
    seed = DEFAULT_EXPERIMENT_SEED if seed is None else int(seed)
    freq = request.get("freq_mhz")
    config = spec.flow_config(
        request.get("selector", "gnn"),
        with_scan=bool(request.get("with_scan", False)),
        dft_strategy=request.get("dft_strategy"),
        freq_mhz=None if freq is None else float(freq))
    return spec, config, seed


class FlowService:
    """The daemon; construct, then :meth:`serve` (or
    :func:`start_in_thread` for in-process embedding)."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.store = ArtifactStore(config.store_root,
                                   budget_bytes=config.budget_bytes)
        self._queue: asyncio.Queue = asyncio.Queue()
        #: Resolved flow -> its job: {"id", "future", "benchmark",
        #: "selector", "since_s", "waiters"}.
        self._inflight: dict[tuple, dict] = {}
        self._req_seq = 0
        #: The one flow thread.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-flow")
        self._stop = asyncio.Event()
        self._started_at = time.time()
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle -----------------------------------------------------------

    async def serve(self) -> None:
        """Bind the socket and serve until a ``shutdown`` request."""
        self._loop = asyncio.get_running_loop()
        path = Path(self.config.socket_path)
        await self._claim_socket(path)
        server = await asyncio.start_unix_server(self._handle_conn,
                                                 path=str(path))
        worker = asyncio.create_task(self._worker())
        # Crash forensics for the daemon's whole lifetime: recent spans
        # ring-buffered, dumped on SIGUSR1 / unhandled exceptions /
        # failed flow jobs.
        flight.arm(Path(self.store.root) / "flight",
                   install_signal=True, install_excepthook=True)
        log.info(f"repro service listening on {path} "
                 f"(store: {self.store.root})")
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            worker.cancel()
            self._executor.shutdown(wait=False, cancel_futures=True)
            flight.disarm()
            path.unlink(missing_ok=True)
            log.info("repro service stopped")

    async def _claim_socket(self, path: Path) -> None:
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            return
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_unix_connection(str(path)), timeout=2.0)
        except (OSError, asyncio.TimeoutError):
            log.warning(f"removing stale service socket {path}")
            path.unlink(missing_ok=True)
            return
        writer.close()
        raise ServiceError(f"service already running on {path}")

    def request_shutdown(self) -> None:
        self._stop.set()

    # -- connection handling -------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while not self._stop.is_set():
                try:
                    line = await _read_line(reader)
                    if not line:
                        break
                    response = await self._dispatch(_parse_request(line))
                except (FlowError, ValueError, KeyError,
                        TypeError) as exc:
                    metrics.inc("service.errors")
                    response = {"ok": False, "error": repr(exc)}
                writer.write(json.dumps(response, default=str).encode()
                             + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        metrics.inc("service.requests")
        metrics.inc(f"service.requests.{op}")
        t0 = time.perf_counter()
        try:
            return await self._dispatch_op(op, request)
        finally:
            latency = time.perf_counter() - t0
            metrics.observe_hist("service.latency_s", latency)
            if isinstance(op, str):
                metrics.observe_hist(f"service.latency_s.{op}", latency)

    async def _dispatch_op(self, op, request: dict) -> dict:
        if op == "ping":
            return {"ok": True, "op": "ping", "pid": os.getpid(),
                    "protocol": PROTOCOL_VERSION}
        if op == "health":
            return self._health()
        if op == "status":
            return self._status()
        if op == "metrics":
            return {"ok": True, "op": "metrics",
                    "format": "prometheus-0.0.4",
                    "text": render_prometheus(metrics.snapshot())}
        if op == "shutdown":
            self.request_shutdown()
            return {"ok": True, "op": "shutdown"}
        if op == "flow":
            return await self._op_flow(request)
        raise ServiceError(f"unknown op {op!r}")

    def _health(self) -> dict:
        return {
            "ok": True,
            "op": "health",
            "status": "ok",
            "pid": os.getpid(),
            "protocol": PROTOCOL_VERSION,
            "uptime_s": time.time() - self._started_at,
            "inflight": len(self._inflight),
            "queue_depth": self._queue.qsize(),
        }

    def _status(self) -> dict:
        return {
            "ok": True,
            "op": "status",
            "pid": os.getpid(),
            "protocol": PROTOCOL_VERSION,
            "socket": self.config.socket_path,
            "uptime_s": time.time() - self._started_at,
            "queue_depth": self._queue.qsize(),
            "inflight": len(self._inflight),
            "inflight_requests": [
                {"id": job["id"], "benchmark": job["benchmark"],
                 "selector": job["selector"],
                 "age_s": time.time() - job["since_s"],
                 "waiters": job["waiters"]}
                for job in self._inflight.values()],
            "flight": {"armed": flight.armed,
                       "dumps": flight.dumps_written,
                       "dir": str(flight.directory or "")},
            "store": self.store.stats(),
            "metrics": metrics.snapshot(),
        }

    # -- the flow op ---------------------------------------------------------

    async def _op_flow(self, request: dict) -> dict:
        spec, config, seed = build_flow_config(request)
        save_report = bool(request.get("save_report"))
        # Dedup on the inputs of the flow's content key, not on the
        # request's spelling: a defaulted and an explicit field are
        # one flow.
        key = (spec.key, seed, config, save_report)
        t0 = time.perf_counter()
        job = self._inflight.get(key)
        deduped = job is not None
        if deduped:
            metrics.inc("service.dedup_hits")
            job["waiters"] += 1
        else:
            self._req_seq += 1
            job = self._inflight[key] = {
                "id": f"req-{self._req_seq}",
                "future": self._loop.create_future(),
                "benchmark": spec.key, "selector": config.selector,
                "since_s": time.time(), "waiters": 1}
            metrics.set_gauge("service.inflight", len(self._inflight))
            await self._queue.put((key, (spec, config, seed,
                                         save_report)))
            metrics.set_gauge("service.queue_depth", self._queue.qsize())
        try:
            response = dict(await asyncio.shield(job["future"]))
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            metrics.inc("service.errors")
            return {"ok": False, "error": repr(exc),
                    "request_id": job["id"]}
        response["deduped"] = deduped
        response["request_id"] = job["id"]
        response["wait_s"] = time.perf_counter() - t0
        metrics.add_time("service.request_wait_s",
                         time.perf_counter() - t0)
        return response

    async def _worker(self) -> None:
        while True:
            key, flow = await self._queue.get()
            job = self._inflight[key]
            try:
                result = await self._loop.run_in_executor(
                    self._executor, self._run_flow_job, *flow, job["id"])
            except Exception as exc:           # surfaced per-awaiter
                job["future"].set_exception(exc)
            else:
                job["future"].set_result(result)
            finally:
                del self._inflight[key]
                metrics.set_gauge("service.inflight", len(self._inflight))
                self._queue.task_done()
                metrics.set_gauge("service.queue_depth",
                                  self._queue.qsize())

    def _run_flow_job(self, spec, config, seed: int, save_report: bool,
                      request_id: str) -> dict:
        """Flow-thread body: store lookup or full flow compute of one
        resolved request.

        The job runs with the cyclic collector paused (a running flow
        leaves no unreachable cycles).  A job that held a report drops
        its design, which is cyclic, so once the report is gone one
        full collection frees it before the next job starts; without
        it a backlog of paused jobs kept every dropped design alive.
        After every job the ``service.peak_rss_mb`` gauge reads the
        process's peak resident set size.
        """
        from repro.service.stages import (flow_artifact_paths,
                                          run_flow_stored)
        # Pin the request id on the flow thread: every span the job
        # emits carries req=<id>, so traces group by request.
        trace.set_request(request_id)
        try:
            with collector_paused():
                with trace.span("service.request", op="flow",
                                benchmark=spec.key,
                                selector=config.selector):
                    t0 = time.perf_counter()
                    report, summary, cached = run_flow_stored(
                        spec.factory, spec.tech(), seed, config,
                        self.store, need_report=save_report)
                    elapsed = time.perf_counter() - t0
                held_report = report is not None
                del report
                if held_report:
                    # Inside the pause, so the pass resets the counts
                    # the job ran up and no automatic pass follows.
                    with trace.span("service.collect"):
                        gc.collect()
        except Exception as exc:
            flight.record_note("flow job failed", request_id=request_id,
                               benchmark=spec.key)
            flight.crash_dump("service.flow", exc)
            raise
        finally:
            trace.set_request(None)
            # Linux reports ru_maxrss in KiB.
            metrics.set_gauge(
                "service.peak_rss_mb",
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics.add_time("service.flow_serve_s", elapsed)
        metrics.observe_hist("service.flow_serve_s", elapsed)
        flight.record_sample("service.flow_serve_s", elapsed,
                             request_id=request_id,
                             benchmark=spec.key, cached=cached)
        response = {
            "ok": True,
            "op": "flow",
            "benchmark": spec.key,
            "selector": config.selector,
            "cached": cached,
            "serve_s": elapsed,
            "row": summary["row"],
            "report_digest": summary["report_digest"],
            "runtime_s": summary["runtime_s"],
            "stage_runtime_s": summary["stage_runtime_s"],
        }
        if save_report:
            response["artifacts"] = flow_artifact_paths(
                spec.factory, spec.tech(), seed, config, self.store)
        return response


# -- embedding helpers --------------------------------------------------------


class ServiceHandle:
    """A daemon running on a background thread (tests, benchmarks)."""

    def __init__(self, service: FlowService, thread: Thread):
        self.service = service
        self.thread = thread

    def stop(self, timeout: float = 30.0) -> None:
        loop = self.service._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.service.request_shutdown)
        self.thread.join(timeout=timeout)


def start_in_thread(config: ServiceConfig,
                    ready_timeout: float = 30.0) -> ServiceHandle:
    """Start a :class:`FlowService` on a daemon thread and wait until
    its socket answers ``ping``."""
    from repro.service.client import ServiceClient, wait_for_service

    service = FlowService(config)
    thread = Thread(target=lambda: asyncio.run(service.serve()),
                    name="repro-service", daemon=True)
    thread.start()
    wait_for_service(config.socket_path, timeout=ready_timeout)
    # One sanity ping so callers start from a known-good connection.
    ServiceClient(config.socket_path).ping()
    return ServiceHandle(service, thread)
