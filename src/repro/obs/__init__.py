"""Zero-dependency observability: spans, counters, structured logs.

The flow is performance-engineered end to end (differential router,
incremental STA, cached-Laplacian placer, fused GNN kernel) but
was a black box at runtime — two ad-hoc ``perf_counter`` windows in
``run_flow`` and nothing else.  This package is the measurement substrate:

* :mod:`repro.obs.tracer` — hierarchical **spans**
  (``with trace.span("place.solve", level=k):``) that nest, carry
  key=value attributes, and serialize to JSONL plus the Chrome
  ``chrome://tracing`` / Perfetto trace-event format.  Long-lived
  processes stream spans through a size-capped
  :class:`RotatingTraceSink` instead of buffering forever.
* :mod:`repro.obs.metrics` — process-wide **counters / gauges /
  stats / histograms** (nets routed and reused, STA arc
  propagations, service request latencies) aggregated into one
  run-level dict and renderable as Prometheus text exposition
  (:func:`render_prometheus`).
* :mod:`repro.obs.histogram` — the fixed-log-bucket
  :class:`Histogram` behind the fourth metrics family: one global
  power-of-two bucket ladder shared by every histogram, so
  cross-process and cross-run merges are exact.
* :mod:`repro.obs.recorder` — the :data:`flight` recorder: a bounded
  ring of recent spans/samples, armed in the daemon, dumped to a
  timestamped file on unhandled exception or ``SIGUSR1``.
* :mod:`repro.obs.analyze` — trace analysis for ``repro trace
  report`` / ``diff``: self/cumulative time per span path, critical
  paths, and aligned run-to-run deltas.
* :mod:`repro.obs.trend` — the append-only perf-trend ledger the
  benches write and the ``repro trace gate`` regression check reads.
* :mod:`repro.obs.log` — the structured ``repro`` logger replacing
  scattered prints: bare messages on stdout at the default level
  (byte-identical to the prints it replaced), WARNING and above on
  stderr, level switchable via ``--log-level``.
* :mod:`repro.obs.schema` — validators for the trace/metrics/flight/
  Prometheus file formats, shared by the test suite and the CI smoke
  jobs.

Contracts:

* **Off by default with a no-op fast path** — ``trace`` is a
  module-level singleton whose ``span()`` returns a shared null
  context manager while disabled and no recorder is armed; the
  counters are plain dict increments.  The instrumented hot paths
  stay within noise of the un-instrumented code (locked loosely by
  ``tests/test_obs.py``).
* **Determinism-safe** — nothing in here feeds back into any
  computation.  All golden fixtures and bit-identical equivalence
  tests pass unchanged with tracing enabled or the recorder armed;
  wall-clock values live only in trace/metrics/flight output, never
  in ``FlowReport.row()``.
"""

from repro.obs.histogram import Histogram
from repro.obs.log import LEVELS, get_logger, set_log_level
from repro.obs.metrics import (MetricsRegistry, metrics,
                               prometheus_name, render_prometheus)
from repro.obs.recorder import FlightRecorder, flight
from repro.obs.tracer import (RotatingTraceSink, Tracer,
                              chrome_trace_path, trace)

__all__ = [
    "FlightRecorder",
    "Histogram",
    "LEVELS",
    "MetricsRegistry",
    "RotatingTraceSink",
    "Tracer",
    "chrome_trace_path",
    "flight",
    "get_logger",
    "metrics",
    "prometheus_name",
    "render_prometheus",
    "set_log_level",
    "trace",
]
