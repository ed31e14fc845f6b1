"""Trace/metrics/flight-dump file-format validators (schema v2).

Shared by the test suite and the CI observability smoke jobs::

    PYTHONPATH=src python -m repro.obs.schema TRACE.jsonl \\
        TRACE.chrome.json METRICS.json
    PYTHONPATH=src python -m repro.obs.schema --prom METRICS.prom
    PYTHONPATH=src python -m repro.obs.schema --flight FLIGHT.json

Each validator raises :class:`ValueError` with a pinpointed message on
the first malformed record and returns a small summary on success, so
both pytest assertions and the CLI entry point get real diagnostics.

Schema v2 (this revision) extends v1 with:

* a required ``histograms`` section in metrics dumps
  (fixed-log-bucket snapshots from :mod:`repro.obs.histogram`);
* flight-recorder dump files (``repro.flight/2``) holding span /
  sample / note ring events plus a metrics snapshot;
* a Prometheus text-exposition checker for the daemon's ``metrics``
  verb.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

#: Validator revision; bumped when any accepted format changes shape.
SCHEMA_VERSION = 2

#: Keys every JSONL span record must carry.
SPAN_KEYS = frozenset(
    {"name", "id", "parent", "pid", "ts_us", "dur_us", "attrs"})

#: Keys every Chrome trace event must carry.
CHROME_KEYS = frozenset({"name", "cat", "ph", "ts", "dur", "pid", "tid",
                         "args"})

#: Top-level sections of a metrics dump.
METRICS_SECTIONS = ("counters", "gauges", "stats", "histograms")

_STAT_FIELDS = frozenset({"count", "total", "min", "max", "mean"})

_HIST_FIELDS = frozenset({"count", "total", "min", "max", "buckets"})

#: Event types a flight-recorder ring may contain.
FLIGHT_EVENT_TYPES = frozenset({"span", "sample", "note"})


def _is_num(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_trace_jsonl(path: str | Path) -> dict:
    """Validate a JSONL span trace; returns {spans, roots, pids}.

    Checks per record: required keys, numeric non-negative timing,
    string ids.  Checks globally: ids unique, every non-null parent
    resolves to a recorded span id (a dangling parent means a span
    closed outside its parent, or a truncated file).
    """
    ids: set[str] = set()
    parents: list[tuple[int, str]] = []
    pids: set[int] = set()
    roots = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") \
                    from None
            if not isinstance(rec, dict):
                raise ValueError(f"{path}:{lineno}: record is not an object")
            missing = SPAN_KEYS - rec.keys()
            if missing:
                raise ValueError(
                    f"{path}:{lineno}: missing keys {sorted(missing)}")
            if not isinstance(rec["name"], str) or not rec["name"]:
                raise ValueError(f"{path}:{lineno}: bad span name")
            if not isinstance(rec["id"], str) or not rec["id"]:
                raise ValueError(f"{path}:{lineno}: bad span id")
            if rec["id"] in ids:
                raise ValueError(
                    f"{path}:{lineno}: duplicate span id {rec['id']!r}")
            ids.add(rec["id"])
            if rec["parent"] is None:
                roots += 1
            elif isinstance(rec["parent"], str):
                parents.append((lineno, rec["parent"]))
            else:
                raise ValueError(f"{path}:{lineno}: bad parent id")
            if not _is_num(rec["ts_us"]) or rec["ts_us"] < 0:
                raise ValueError(f"{path}:{lineno}: bad ts_us")
            if not _is_num(rec["dur_us"]) or rec["dur_us"] < 0:
                raise ValueError(f"{path}:{lineno}: bad dur_us")
            if not isinstance(rec["pid"], int):
                raise ValueError(f"{path}:{lineno}: bad pid")
            if not isinstance(rec["attrs"], dict):
                raise ValueError(f"{path}:{lineno}: attrs not an object")
            pids.add(rec["pid"])
    for lineno, parent in parents:
        if parent not in ids:
            raise ValueError(
                f"{path}:{lineno}: parent {parent!r} references no "
                f"recorded span")
    return {"spans": len(ids), "roots": roots, "pids": len(pids)}


def validate_chrome_trace(path: str | Path) -> dict:
    """Validate a Chrome trace-event file; returns {events, pids}."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError(f"{path}: no traceEvents section")
    events = payload["traceEvents"]
    if not isinstance(events, list):
        raise ValueError(f"{path}: traceEvents is not a list")
    pids: set[int] = set()
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"{path}: event {i} is not an object")
        missing = CHROME_KEYS - event.keys()
        if missing:
            raise ValueError(
                f"{path}: event {i} missing keys {sorted(missing)}")
        if event["ph"] != "X":
            raise ValueError(f"{path}: event {i} has phase "
                             f"{event['ph']!r}, expected complete 'X'")
        if not _is_num(event["ts"]) or event["ts"] < 0:
            raise ValueError(f"{path}: event {i} bad ts")
        if not _is_num(event["dur"]) or event["dur"] < 0:
            raise ValueError(f"{path}: event {i} bad dur")
        pids.add(event["pid"])
    return {"events": len(events), "pids": len(pids)}


def validate_histogram_snapshot(snap: dict, where: str) -> None:
    """Validate one fixed-log-bucket histogram snapshot dict."""
    if not isinstance(snap, dict) or _HIST_FIELDS - snap.keys():
        raise ValueError(f"{where}: missing histogram fields")
    for field in ("count", "total", "min", "max"):
        if not _is_num(snap[field]):
            raise ValueError(f"{where}[{field}] is not numeric")
    buckets = snap["buckets"]
    if not isinstance(buckets, dict):
        raise ValueError(f"{where}: buckets is not an object")
    total_count = 0
    last_bound = float("-inf")
    for label, count in buckets.items():
        if label != "+Inf":
            try:
                bound = float(label)
            except ValueError:
                raise ValueError(
                    f"{where}: bucket label {label!r} is not a "
                    f"number") from None
            if bound <= last_bound:
                raise ValueError(f"{where}: bucket labels not "
                                 f"strictly increasing at {label!r}")
            last_bound = bound
        if not isinstance(count, int) or count < 1:
            raise ValueError(
                f"{where}: bucket[{label!r}] count must be a positive "
                f"integer, got {count!r}")
        total_count += count
    if total_count != snap["count"]:
        raise ValueError(
            f"{where}: bucket counts sum to {total_count}, "
            f"count says {snap['count']}")
    if snap["count"] and snap["min"] > snap["max"]:
        raise ValueError(f"{where}: min > max")


def validate_metrics(path: str | Path) -> dict:
    """Validate a metrics dump; returns section sizes."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object")
    for section in METRICS_SECTIONS:
        if section not in payload or not isinstance(payload[section], dict):
            raise ValueError(f"{path}: missing section {section!r}")
    for family in ("counters", "gauges"):
        for name, value in payload[family].items():
            if not _is_num(value):
                raise ValueError(
                    f"{path}: {family}[{name!r}] is not numeric")
    for name, stat in payload["stats"].items():
        if not isinstance(stat, dict) or _STAT_FIELDS - stat.keys():
            raise ValueError(f"{path}: stats[{name!r}] missing fields")
        for field in _STAT_FIELDS:
            if not _is_num(stat[field]):
                raise ValueError(
                    f"{path}: stats[{name!r}][{field}] is not numeric")
        if stat["count"] < 1 or stat["min"] > stat["max"]:
            raise ValueError(f"{path}: stats[{name!r}] is inconsistent")
    for name, snap in payload["histograms"].items():
        validate_histogram_snapshot(snap, f"{path}: histograms[{name!r}]")
    return {section: len(payload[section]) for section in METRICS_SECTIONS}


def validate_flight_dump(path: str | Path) -> dict:
    """Validate a flight-recorder dump; returns {events, spans}."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object")
    if payload.get("schema") != "repro.flight/2":
        raise ValueError(f"{path}: unknown flight schema "
                         f"{payload.get('schema')!r}")
    for field in ("reason", "pid", "ts_us", "events", "metrics"):
        if field not in payload:
            raise ValueError(f"{path}: missing field {field!r}")
    if not isinstance(payload["reason"], str) or not payload["reason"]:
        raise ValueError(f"{path}: bad reason")
    if not isinstance(payload["events"], list):
        raise ValueError(f"{path}: events is not a list")
    spans = 0
    for i, event in enumerate(payload["events"]):
        if not isinstance(event, dict):
            raise ValueError(f"{path}: event {i} is not an object")
        etype = event.get("type")
        if etype not in FLIGHT_EVENT_TYPES:
            raise ValueError(f"{path}: event {i} has unknown type "
                             f"{etype!r}")
        if etype == "span":
            missing = SPAN_KEYS - event.keys()
            if missing:
                raise ValueError(f"{path}: span event {i} missing keys "
                                 f"{sorted(missing)}")
            spans += 1
        elif etype == "sample":
            if not isinstance(event.get("name"), str) \
                    or not _is_num(event.get("value")):
                raise ValueError(f"{path}: sample event {i} malformed")
        else:                                       # note
            if not isinstance(event.get("message"), str):
                raise ValueError(f"{path}: note event {i} malformed")
        if not _is_num(event.get("ts_us")) or event["ts_us"] < 0:
            raise ValueError(f"{path}: event {i} bad ts_us")
    if "exception" in payload:
        exc = payload["exception"]
        if not isinstance(exc, dict) \
                or not isinstance(exc.get("type"), str) \
                or not isinstance(exc.get("traceback"), str):
            raise ValueError(f"{path}: malformed exception section")
    # The embedded metrics snapshot obeys the metrics schema; reuse it
    # structurally by validating the sections inline.
    snap = payload["metrics"]
    if not isinstance(snap, dict) \
            or any(section not in snap for section in METRICS_SECTIONS):
        raise ValueError(f"{path}: malformed metrics snapshot")
    return {"events": len(payload["events"]), "spans": spans}


#: ``name{labels} value [timestamp]`` — enough of the Prometheus text
#: format to catch a broken renderer.
_PROM_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? "
    r"([+-]?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|inf|nan))$")
_PROM_TYPES = frozenset({"counter", "gauge", "summary", "histogram",
                         "untyped"})


def validate_prometheus_text(path: str | Path) -> dict:
    """Validate Prometheus text exposition; returns {samples, types}.

    Checks sample-line syntax, ``# TYPE`` declarations, and per-
    histogram bucket monotonicity (cumulative ``le`` counts must not
    decrease and must end at ``+Inf`` == ``_count``).
    """
    text = Path(path).read_text(encoding="utf-8")
    samples = 0
    types: dict[str, str] = {}
    buckets: dict[str, list[tuple[float, float]]] = {}
    counts: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in _PROM_TYPES:
                raise ValueError(f"{path}:{lineno}: bad TYPE line")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _PROM_SAMPLE.match(line)
        if not match:
            raise ValueError(f"{path}:{lineno}: bad sample line "
                             f"{line!r}")
        name, labels, value = match.groups()
        samples += 1
        if name.endswith("_bucket") and labels and "le=" in labels:
            le = labels.split('le="', 1)[1].split('"', 1)[0]
            bound = float("inf") if le == "+Inf" else float(le)
            buckets.setdefault(name[:-len("_bucket")], []).append(
                (bound, float(value)))
        elif name.endswith("_count"):
            counts[name[:-len("_count")]] = float(value)
    for base, pairs in buckets.items():
        last = -1.0
        for bound, cum in pairs:
            if cum < last:
                raise ValueError(
                    f"{path}: histogram {base} bucket counts decrease "
                    f"at le={bound}")
            last = cum
        if pairs[-1][0] != float("inf"):
            raise ValueError(f"{path}: histogram {base} missing +Inf "
                             f"bucket")
        if base in counts and pairs[-1][1] != counts[base]:
            raise ValueError(
                f"{path}: histogram {base} +Inf bucket "
                f"{pairs[-1][1]} != _count {counts[base]}")
    return {"samples": samples, "types": len(types)}


def main(argv: list[str] | None = None) -> int:
    """CLI entry: validate trace JSONL [chrome JSON [metrics JSON]],
    plus ``--prom FILE`` / ``--flight FILE`` for the v2 formats."""
    args = list(sys.argv[1:] if argv is None else argv)
    extra: list[tuple] = []
    for flag, validator in (("--prom", validate_prometheus_text),
                            ("--flight", validate_flight_dump)):
        while flag in args:
            i = args.index(flag)
            try:
                extra.append((args[i + 1], validator))
            except IndexError:
                print(f"{flag} needs a file argument", file=sys.stderr)
                return 2
            del args[i:i + 2]
    if (not args and not extra) or len(args) > 3:
        print("usage: python -m repro.obs.schema [TRACE.jsonl "
              "[TRACE.chrome.json [METRICS.json]]] "
              "[--prom FILE] [--flight FILE]", file=sys.stderr)
        return 2
    validators = (validate_trace_jsonl, validate_chrome_trace,
                  validate_metrics)
    try:
        for path, validator in list(zip(args, validators)) + extra:
            summary = validator(path)
            print(f"{path}: OK {summary}")
    except (OSError, ValueError) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
