"""Hierarchical span tracing with a null fast path.

One module-level :data:`trace` singleton serves the whole process.
While disabled (the default) ``trace.span(...)`` returns a shared
no-op context manager — no allocation, no clock reads — so the
instrumented hot paths cost a single attribute check.  While enabled,
spans nest via an explicit stack, carry key=value attributes, and
accumulate as flat dict records that serialize to

* **JSONL** — one record per line:
  ``{"name", "id", "parent", "pid", "ts_us", "dur_us", "attrs"}``
  with ``parent`` the enclosing span's id (or ``None`` for roots);
* **Chrome trace-event JSON** — complete (``"ph": "X"``) events
  loadable in ``chrome://tracing`` or https://ui.perfetto.dev, one
  timeline row per process id.

Span ids are ``"<pid>-<seq>"``, so traces from different processes
and runs never collide and stay diffable.

The span *stack* is per-thread (``threading.local``): spans opened
on different threads — e.g. the service daemon's event loop and its
flow thread — each nest under their own roots instead of
interleaving onto one shared stack.  The record buffer stays
process-wide (list appends are atomic under the GIL), so one
``write_jsonl`` still serializes every thread's spans.

Long-lived processes (the service daemon) must not grow an unbounded
in-memory record list or trace file: :class:`RotatingTraceSink`
streams each record to JSONL as its span closes and rolls the file
over at a size cap (``run.jsonl`` -> ``run.jsonl.1`` ...), and while
a sink is attached the in-memory buffer stays empty.

A *request id* can be pinned to the calling thread
(:meth:`Tracer.set_request`): every span the thread opens while pinned
carries a ``req`` attribute, so spans group by request.  The service
daemon pins one id per ``flow`` request.

Timestamps are wall-clock microseconds (comparable across processes);
durations come from ``perf_counter_ns``.  Nothing here is read back
by any computation — tracing is determinism-safe by construction.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from pathlib import Path


class _NullSpan:
    """Shared no-op span: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class RotatingTraceSink:
    """Streaming JSONL span writer with size-based rollover.

    Records append to *path* as their spans close; once the file would
    exceed *max_bytes* it rotates — ``path`` -> ``path.1`` ->
    ``path.2`` ... up to *backups* generations, oldest dropped — so a
    daemon tracing for days holds at most ``(backups + 1) * max_bytes``
    of trace on disk and nothing in memory.
    """

    def __init__(self, path: str | Path, max_bytes: int = 64 << 20,
                 backups: int = 3):
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.backups = max(0, backups)
        self.rotations = 0
        self.records_written = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._bytes = 0

    def write(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        if self._bytes and self._bytes + len(line) > self.max_bytes:
            self._rotate()
        self._fh.write(line)
        self._bytes += len(line)
        self.records_written += 1

    def _rotate(self) -> None:
        self._fh.close()
        oldest = self.path.with_name(f"{self.path.name}.{self.backups}")
        oldest.unlink(missing_ok=True)
        for gen in range(self.backups - 1, 0, -1):
            src = self.path.with_name(f"{self.path.name}.{gen}")
            if src.exists():
                src.rename(self.path.with_name(
                    f"{self.path.name}.{gen + 1}"))
        if self.backups:
            self.path.rename(self.path.with_name(f"{self.path.name}.1"))
        else:
            self.path.unlink(missing_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._bytes = 0
        self.rotations += 1

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class _Span:
    """One live span; created only while the tracer is enabled."""

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id",
                 "ts_us", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        t = self._tracer
        frame = t._frame()
        stack = frame.stack
        self.parent_id = stack[-1] if stack else None
        self.span_id = t._next_id()
        stack.append(self.span_id)
        if frame.request_id is not None and "req" not in self.attrs:
            self.attrs["req"] = frame.request_id
        self.ts_us = time.time_ns() // 1000
        self._t0 = time.perf_counter_ns()
        return self

    def set(self, **attrs) -> "_Span":
        """Attach attributes discovered mid-span."""
        self.attrs.update(attrs)
        return self

    def __exit__(self, *exc_info) -> bool:
        dur_us = (time.perf_counter_ns() - self._t0) / 1000.0
        t = self._tracer
        t._frame().stack.pop()
        t._emit({
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "pid": t._pid,
            "ts_us": self.ts_us,
            "dur_us": round(dur_us, 3),
            "attrs": self.attrs,
        })
        return False


class _ThreadFrame:
    """Per-thread tracer state: the span stack and the request id
    pinned to the thread's spans."""

    __slots__ = ("stack", "request_id")

    def __init__(self) -> None:
        self.stack: list[str] = []
        self.request_id: str | None = None


class Tracer:
    """Span recorder; see the module docstring for the model."""

    def __init__(self) -> None:
        self._enabled = False
        self._records: list[dict] = []
        self._local = threading.local()
        #: Atomic under the GIL — threads share one id sequence.
        self._seq = itertools.count(1)
        self._pid = os.getpid()
        self._sink: RotatingTraceSink | None = None
        #: Flight recorder ring (:mod:`repro.obs.recorder`); when set,
        #: spans are created and mirrored into it even with tracing
        #: disabled.
        self._flight = None

    def _frame(self) -> _ThreadFrame:
        frame = getattr(self._local, "frame", None)
        if frame is None:
            frame = self._local.frame = _ThreadFrame()
        return frame

    # -- state ---------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._pid = os.getpid()
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        """Drop all recorded spans and the calling thread's stack (the
        seq counter keeps running so ids stay unique across resets)."""
        self._records = []
        frame = self._frame()
        frame.stack = []
        frame.request_id = None

    @property
    def records(self) -> list[dict]:
        """The recorded span dicts, in completion order."""
        return self._records

    def _next_id(self) -> str:
        return f"{self._pid:x}-{next(self._seq):x}"

    def _emit(self, record: dict) -> None:
        """Route one finished span record to every active consumer."""
        if self._enabled:
            if self._sink is None:
                self._records.append(record)
            else:
                self._sink.write(record)
        if self._flight is not None:
            self._flight.record_span(record)

    # -- streaming sink ------------------------------------------------------

    @property
    def sink(self) -> RotatingTraceSink | None:
        return self._sink

    def attach_sink(self, sink: RotatingTraceSink) -> None:
        """Stream finished spans through *sink* (size-capped JSONL)
        instead of the in-memory record buffer, so neither the trace
        file nor process memory grows without bound."""
        self._sink = sink

    def detach_sink(self) -> RotatingTraceSink | None:
        """Close and return the active sink (restores buffering)."""
        sink, self._sink = self._sink, None
        if sink is not None:
            sink.close()
        return sink

    # -- flight recorder -----------------------------------------------------

    def attach_flight(self, recorder) -> None:
        """Mirror every finished span into *recorder*'s ring buffer —
        even while tracing is disabled (the always-on crash path)."""
        self._pid = os.getpid()
        self._flight = recorder

    def detach_flight(self) -> None:
        self._flight = None

    # -- request ids ---------------------------------------------------------

    def set_request(self, request_id: str | None) -> None:
        """Pin *request_id* to the calling thread: every span it opens
        carries ``attrs["req"]`` until cleared with ``None``."""
        self._frame().request_id = request_id

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, **attrs):
        """Context manager for one span; a shared no-op when disabled.

        Attribute values must be JSON-representable scalars (str, int,
        float, bool) — they go straight into the trace output.
        """
        if not self._enabled and self._flight is None:
            return _NULL_SPAN
        return _Span(self, name, attrs)

    # -- serialization -------------------------------------------------------

    def write_jsonl(self, path: str | Path) -> int:
        """Write one span record per line; returns the record count."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self._records:
                fh.write(json.dumps(rec, sort_keys=True, default=str))
                fh.write("\n")
        return len(self._records)

    def write_chrome(self, path: str | Path) -> int:
        """Write the Chrome trace-event view; returns the event count.

        Timestamps are rebased to the earliest span so the timeline
        opens at t=0 in ``chrome://tracing`` / Perfetto.
        """
        base = min((rec["ts_us"] for rec in self._records), default=0)
        events = [{
            "name": rec["name"],
            "cat": rec["name"].split(".", 1)[0],
            "ph": "X",
            "ts": rec["ts_us"] - base,
            "dur": rec["dur_us"],
            "pid": rec["pid"],
            "tid": rec["pid"],
            "args": rec["attrs"],
        } for rec in self._records]
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, default=str)
            fh.write("\n")
        return len(events)


def chrome_trace_path(jsonl_path: str | Path) -> Path:
    """The Chrome-format sibling of a JSONL trace path
    (``run.jsonl`` -> ``run.chrome.json``)."""
    return Path(jsonl_path).with_suffix(".chrome.json")


#: The process-wide tracer.  Import it, don't construct your own.
trace = Tracer()
