"""Run-level counters, gauges and scalar stats.

One module-level :data:`metrics` registry per process.  Updates are
plain dict operations — always on, cheap enough for the hot loops
that feed them (one increment per routed net, one per STA update).
Pool *workers* run in separate processes; their registries are local
and discarded, so every wired call site counts at the parent-side
merge point (the chunk result drain) — worker-interior timing detail
travels through span collection instead (:mod:`repro.obs.tracer`).

Four families:

* **counters**   — monotonically increasing totals (``inc``);
* **gauges**     — last-write-wins values (``set_gauge``);
* **stats**      — scalar distributions kept as count/total/min/max
  (``observe``; ``add_time`` is the seconds-valued convenience);
* **histograms** — fixed-log-bucket distributions
  (:mod:`repro.obs.histogram`) for latency-shaped values where the
  tail matters (``observe_hist``) — the daemon's per-request latency
  lives here.

``snapshot()`` returns the aggregate dict benchmarks attach to their
``BENCH_*.json`` records; ``write_json()`` is what ``--metrics PATH``
dumps; :func:`render_prometheus` is the same registry in Prometheus
text exposition format (the daemon's ``metrics`` verb).  Nothing here
is read back by any computation — metrics are determinism-safe by
construction.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.obs.histogram import Histogram


class MetricsRegistry:
    """Process-wide metric aggregation; see the module docstring."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        #: name -> [count, total, min, max]
        self._stats: dict[str, list[float]] = {}
        self._hists: dict[str, Histogram] = {}

    # -- updates -------------------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        stat = self._stats.get(name)
        if stat is None:
            self._stats[name] = [1, value, value, value]
        else:
            stat[0] += 1
            stat[1] += value
            if value < stat[2]:
                stat[2] = value
            if value > stat[3]:
                stat[3] = value

    def add_time(self, name: str, seconds: float) -> None:
        """Seconds-valued :meth:`observe`; name by convention ``*_s``."""
        self.observe(name, seconds)

    def observe_hist(self, name: str, value: float) -> None:
        """Count *value* into the fixed-log-bucket histogram *name*."""
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = Histogram()
        hist.observe(value)

    # -- reads ---------------------------------------------------------------

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def hist(self, name: str) -> Histogram | None:
        return self._hists.get(name)

    def snapshot(self) -> dict:
        """The whole registry as one sorted, JSON-ready dict."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "stats": {
                name: {"count": stat[0], "total": stat[1],
                       "min": stat[2], "max": stat[3],
                       "mean": stat[1] / stat[0]}
                for name, stat in sorted(self._stats.items())
            },
            "histograms": {
                name: hist.snapshot()
                for name, hist in sorted(self._hists.items())
            },
        }

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._stats.clear()
        self._hists.clear()

    def write_json(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True,
                      default=str)
            fh.write("\n")


# -- Prometheus text exposition -----------------------------------------------

#: Characters Prometheus metric names may not contain.
_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str, prefix: str = "repro_") -> str:
    """``service.request_wait_s`` -> ``repro_service_request_wait_s``."""
    return prefix + _PROM_BAD.sub("_", name)


def render_prometheus(snapshot: dict) -> str:
    """Render one :meth:`MetricsRegistry.snapshot` dict as Prometheus
    text exposition (version 0.0.4).

    * counters -> ``counter``;
    * gauges -> ``gauge``;
    * stats -> ``summary`` (``_sum``/``_count``) plus ``_min``/``_max``
      gauges (Prometheus summaries cannot carry extrema);
    * histograms -> ``histogram`` with cumulative ``le`` buckets over
      the full fixed ladder, ``+Inf``, ``_sum`` and ``_count``.
    """
    lines: list[str] = []

    def emit(name: str, kind: str, sample_lines: list[str]) -> None:
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(sample_lines)

    for name, value in snapshot.get("counters", {}).items():
        pname = prometheus_name(name) + "_total"
        emit(pname, "counter", [f"{pname} {value!r}"])
    for name, value in snapshot.get("gauges", {}).items():
        pname = prometheus_name(name)
        emit(pname, "gauge", [f"{pname} {value!r}"])
    for name, stat in snapshot.get("stats", {}).items():
        pname = prometheus_name(name)
        emit(pname, "summary", [f"{pname}_sum {stat['total']!r}",
                                f"{pname}_count {stat['count']!r}"])
        for field in ("min", "max"):
            gname = f"{pname}_{field}"
            emit(gname, "gauge", [f"{gname} {stat[field]!r}"])
    for name, snap in snapshot.get("histograms", {}).items():
        pname = prometheus_name(name)
        hist = Histogram.from_snapshot(snap)
        samples = [f'{pname}_bucket{{le="{label}"}} {count}'
                   for label, count in hist.cumulative()]
        samples.append(f"{pname}_sum {hist.total!r}")
        samples.append(f"{pname}_count {hist.count}")
        emit(pname, "histogram", samples)
    return "\n".join(lines) + "\n"


#: The process-wide registry.  Import it, don't construct your own.
metrics = MetricsRegistry()
