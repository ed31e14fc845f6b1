"""Perf-trend ledger: append-only leg timings plus a regression gate.

Every ``benchmarks/bench_*.py`` writer produces a rich ``BENCH_*.json``
at the repo root — great for inspecting one run, useless for trends
because each run overwrites the last.  This module unifies the legs
those benches time into one **append-only** JSONL ledger
(``benchmarks/results/trend.jsonl``): one record per bench invocation

    {"v": 1, "ts": "2026-08-09T12:00:00Z", "bench": "place",
     "smoke": true, "legs": {"place.maeri16_hetero.cached_s": 0.41},
     "meta": {"cpu_count": 8}}

with leg names ``<bench>.<benchmark-key>.<leg>_s`` (lower is better,
seconds unless the name says otherwise).  The ledger is what makes a
perf claim auditable: Open3DBench-style trend tracking instead of a
one-shot number in a PR description.

The **gate** (``repro trace gate``) reads the latest sample of every
leg named in a budgets file (``benchmarks/budgets.json``) and fails
when a leg exceeds ``budget * (1 + tolerance)`` — the CI perf-trend
job runs the smoke benches and then this check, so a hot-path
regression larger than the tolerance (15 % by default) cannot merge
silently.  Budgets are deliberately generous absolute ceilings (CI
machines vary); re-baseline with ``repro trace gate
--update-budgets [--leg NAME ...]`` after an intentional perf change
— named legs are re-baselined and every other budget is kept.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

#: Ledger record revision.
TREND_VERSION = 1

#: Default allowed regression over a leg's budget.
DEFAULT_TOLERANCE = 0.15

#: Default headroom multiplier when (re)writing budgets from the
#: latest samples: budgets are ceilings, not point estimates.
DEFAULT_HEADROOM = 2.0


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def usable_cores() -> int:
    """Cores this process may actually run on (affinity-aware).

    Benchmarks use this to gate speedup assertions — a 1-core
    container cannot beat its own serial loop, and the honest record
    should show that rather than a faked number.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def append_trend(path: str | Path, bench: str, legs: dict[str, float],
                 meta: dict | None = None,
                 smoke: bool | None = None) -> dict:
    """Append one ledger record for *bench*; returns the record.

    *legs* maps fully-qualified leg names to numeric values (lower is
    better).  Non-finite and non-numeric values are rejected so the
    gate never has to reason about NaN.
    """
    for name, value in legs.items():
        if not isinstance(value, (int, float)) \
                or isinstance(value, bool) \
                or value != value or value in (float("inf"),
                                               float("-inf")):
            raise ValueError(f"leg {name!r} has non-finite value "
                             f"{value!r}")
    record = {"v": TREND_VERSION, "ts": _utc_now(), "bench": bench,
              "legs": {name: round(float(value), 6)
                       for name, value in sorted(legs.items())}}
    if smoke is not None:
        record["smoke"] = bool(smoke)
    if meta:
        record["meta"] = meta
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def load_trend(path: str | Path) -> list[dict]:
    """All ledger records, oldest first; [] for a missing file."""
    path = Path(path)
    if not path.exists():
        return []
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not a JSON trend record: "
                    f"{exc}") from None
            if not isinstance(rec, dict) or "legs" not in rec:
                raise ValueError(f"{path}:{lineno}: no legs section")
            records.append(rec)
    return records


def latest_legs(records: list[dict]) -> dict[str, dict]:
    """Newest sample per leg: name -> {value, ts, bench}."""
    latest: dict[str, dict] = {}
    for rec in records:            # oldest first: later records win
        for name, value in rec["legs"].items():
            latest[name] = {"value": value, "ts": rec.get("ts"),
                            "bench": rec.get("bench")}
    return latest


# -- budgets ------------------------------------------------------------------


def load_budgets(path: str | Path) -> dict:
    """The budgets file: {"version", "tolerance", "budgets": {...}}."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) \
            or not isinstance(payload.get("budgets"), dict):
        raise ValueError(f"{path}: no budgets section")
    for name, value in payload["budgets"].items():
        if not isinstance(value, (int, float)) or value <= 0:
            raise ValueError(f"{path}: budget {name!r} must be a "
                             f"positive number, got {value!r}")
    payload.setdefault("tolerance", DEFAULT_TOLERANCE)
    return payload


def write_budgets(path: str | Path, latest: dict[str, dict],
                  legs: list[str] | None = None,
                  tolerance: float | None = None,
                  headroom: float | None = None) -> dict:
    """(Re)baseline budgets from the newest samples, merging into *path*.

    *legs* restricts which leg names get new budgets (default: every
    leg with a sample); *headroom* scales the sample into a ceiling.
    Every other leg already in the file keeps its budget, and the
    file's ``tolerance`` and ``headroom`` stay unless passed here
    (defaults: :data:`DEFAULT_TOLERANCE`, :data:`DEFAULT_HEADROOM`).
    """
    names = sorted(latest.keys() if legs is None else legs)
    for name in names:
        if name not in latest:
            raise ValueError(f"no trend sample for leg {name!r}")
    previous = load_budgets(path) if Path(path).exists() else {}
    if tolerance is None:
        tolerance = previous.get("tolerance", DEFAULT_TOLERANCE)
    if headroom is None:
        headroom = previous.get("headroom", DEFAULT_HEADROOM)
    budgets = dict(previous.get("budgets", {}))
    for name in names:
        budgets[name] = round(latest[name]["value"] * headroom, 6)
    payload = {"version": TREND_VERSION, "tolerance": tolerance,
               "headroom": headroom, "updated": _utc_now(),
               "budgets": dict(sorted(budgets.items()))}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")
    return payload


# -- the gate -----------------------------------------------------------------


def check_gate(latest: dict[str, dict], budgets: dict) -> \
        tuple[list[str], list[str]]:
    """(failures, report lines) for every budgeted leg.

    A leg fails when its newest sample exceeds
    ``budget * (1 + tolerance)`` or when it has no sample at all —
    silently-unmeasured legs must not pass.
    """
    tolerance = float(budgets.get("tolerance", DEFAULT_TOLERANCE))
    failures: list[str] = []
    lines = [f"{'leg':<42} {'latest':>10} {'ceiling':>10}  status"]
    for name, budget in sorted(budgets["budgets"].items()):
        ceiling = budget * (1.0 + tolerance)
        sample = latest.get(name)
        if sample is None:
            failures.append(f"{name}: no trend sample recorded")
            lines.append(f"{name:<42} {'—':>10} {ceiling:>10.3f}  "
                         f"MISSING")
            continue
        value = sample["value"]
        status = "ok" if value <= ceiling else "REGRESSED"
        if value > ceiling:
            failures.append(
                f"{name}: {value:.3f} exceeds budget {budget:.3f} "
                f"+{tolerance * 100:.0f}% (ceiling {ceiling:.3f})")
        lines.append(f"{name:<42} {value:>10.3f} {ceiling:>10.3f}  "
                     f"{status}")
    return failures, lines
