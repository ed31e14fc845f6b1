"""Flight recorder: always-on crash forensics for long-lived processes.

Full tracing (``--trace``) is opt-in because nobody wants gigabytes of
JSONL from a daemon that mostly serves warm cache hits.  But when that
daemon *does* crash — or wedges and gets a ``SIGUSR1`` — the question
is always "what was it doing in the last few seconds?".  The flight
recorder answers it at near-zero steady-state cost:

* a bounded ring buffer (``collections.deque(maxlen=N)``) of the most
  recent **span records** — the tracer mirrors every finished span
  into the ring whenever a recorder is armed, even with tracing
  disabled (see :meth:`repro.obs.tracer.Tracer.attach_flight`) — plus
  explicit **metric samples** recorded by interested call sites (the
  daemon drops one per request);
* :meth:`FlightRecorder.dump` writes a timestamped JSON file with the
  ring contents, a full metrics snapshot, and (for crashes) the
  formatted traceback, then returns the path;
* trigger wiring: ``SIGUSR1`` (live forensics without stopping the
  service), ``sys.excepthook`` (unhandled crashes), and explicit
  ``crash_dump`` calls from the daemon's job runner.

The ring is determinism-safe like the rest of :mod:`repro.obs`:
nothing in it is ever read back by a computation.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
import traceback
from collections import deque
from pathlib import Path

from repro.obs.metrics import metrics
from repro.obs.tracer import trace

#: Default ring capacity: recent-history window, not a trace.
DEFAULT_CAPACITY = 4096

#: Schema tag written into every dump (validated by
#: :mod:`repro.obs.schema`).
DUMP_SCHEMA = "repro.flight/2"


class FlightRecorder:
    """Bounded ring of recent spans/samples plus dump triggers."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self._ring: deque = deque(maxlen=capacity)
        self._dir: Path | None = None
        self._armed = False
        self._lock = threading.Lock()
        self._prev_excepthook = None
        self._prev_sigusr1 = None
        self.dumps_written = 0

    # -- state ---------------------------------------------------------------

    @property
    def armed(self) -> bool:
        return self._armed

    @property
    def directory(self) -> Path | None:
        return self._dir

    def arm(self, directory: str | Path, *,
            install_signal: bool = False,
            install_excepthook: bool = False) -> "FlightRecorder":
        """Start mirroring spans into the ring; dumps go to *directory*.

        ``install_signal`` registers a ``SIGUSR1`` handler (main thread
        only — silently skipped elsewhere); ``install_excepthook``
        chains a dump in front of ``sys.excepthook``.
        """
        self._dir = Path(directory)
        self._armed = True
        trace.attach_flight(self)
        if install_signal:
            try:
                self._prev_sigusr1 = signal.signal(
                    signal.SIGUSR1, self._on_sigusr1)
            except ValueError:      # not the main thread
                self._prev_sigusr1 = None
        if install_excepthook and self._prev_excepthook is None:
            self._prev_excepthook = sys.excepthook
            sys.excepthook = self._on_excepthook
        return self

    def disarm(self) -> None:
        """Stop recording and unwind the hooks (tests, daemon stop)."""
        trace.detach_flight()
        self._armed = False
        if self._prev_excepthook is not None:
            sys.excepthook = self._prev_excepthook
            self._prev_excepthook = None
        if self._prev_sigusr1 is not None:
            try:
                signal.signal(signal.SIGUSR1, self._prev_sigusr1)
            except ValueError:      # pragma: no cover - not main thread
                pass
            self._prev_sigusr1 = None
        self._ring.clear()

    # -- recording -----------------------------------------------------------

    def record_span(self, record: dict) -> None:
        """Ring-append one finished span record (tracer callback)."""
        self._ring.append({"type": "span", **record})

    def record_sample(self, name: str, value: float, **attrs) -> None:
        """Ring-append one metric sample (explicit call sites)."""
        self._ring.append({"type": "sample", "name": name,
                           "value": value, "ts_us": time.time_ns() // 1000,
                           "attrs": attrs})

    def record_note(self, message: str, **attrs) -> None:
        """Ring-append one free-form breadcrumb."""
        self._ring.append({"type": "note", "message": message,
                           "ts_us": time.time_ns() // 1000,
                           "attrs": attrs})

    def events(self) -> list[dict]:
        return list(self._ring)

    # -- dumping -------------------------------------------------------------

    def dump(self, reason: str, exc: BaseException | None = None,
             directory: str | Path | None = None) -> Path:
        """Write the ring + metrics snapshot to a timestamped file."""
        directory = Path(directory or self._dir or ".")
        directory.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
        with self._lock:
            path = directory / (f"flight-{stamp}-{os.getpid()}-"
                                f"{self.dumps_written}.json")
            payload = {
                "schema": DUMP_SCHEMA,
                "reason": reason,
                "pid": os.getpid(),
                "ts_us": time.time_ns() // 1000,
                "events": list(self._ring),
                "metrics": metrics.snapshot(),
            }
            if exc is not None:
                payload["exception"] = {
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "traceback": "".join(traceback.format_exception(
                        type(exc), exc, exc.__traceback__)),
                }
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True,
                          default=str)
                fh.write("\n")
            self.dumps_written += 1
        metrics.inc("flight.dumps")
        return path

    def crash_dump(self, reason: str,
                   exc: BaseException) -> Path | None:
        """Best-effort :meth:`dump` for exception paths: a no-op when
        disarmed, and never raises (forensics must not mask the
        original failure)."""
        if not self._armed:
            return None
        try:
            return self.dump(reason, exc=exc)
        except OSError:             # pragma: no cover - disk full etc.
            return None

    # -- trigger plumbing ----------------------------------------------------

    def _on_sigusr1(self, signum, frame) -> None:
        del signum, frame
        self.dump("sigusr1")

    def _on_excepthook(self, exc_type, exc, tb) -> None:
        if exc is not None:
            exc.__traceback__ = tb
            self.crash_dump("excepthook", exc)
        hook = self._prev_excepthook or sys.__excepthook__
        hook(exc_type, exc, tb)


#: The process-wide recorder.  Import it, don't construct your own.
flight = FlightRecorder()
