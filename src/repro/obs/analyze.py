"""Trace analysis: span-tree profiles, critical paths, and run diffs.

The tracer writes flat JSONL span records; this module turns one (or
two) of those files into answers:

* :func:`aggregate` folds the span forest into **path statistics** —
  a *path* is the chain of span names from a root down
  (``flow/flow.prepare/prepare.place/place.solve``), and each path
  accumulates call count, **total** (cumulative) time and **self**
  time (total minus the time spent in child spans).  Self time is
  what profilers sort by: it localizes where wall-clock is actually
  burned rather than inherited.
* :func:`critical_path` walks the longest root's tree picking the
  slowest child at every level — the chain a latency optimisation has
  to shorten for the run to get faster.
* :func:`diff_profiles` aligns two runs' path statistics and reports
  where wall-clock moved: per-path deltas of self and total time,
  with paths that appear or disappear marked as such.  This is the
  evidence format hot-path PRs cite.

Records whose parent id is missing from the file (e.g. the head of a
rotated trace) are treated as roots rather than dropped.

Everything operates on plain record dicts, so tests can hand-build
span forests without touching the tracer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


def read_spans(path: str | Path) -> list[dict]:
    """Load one JSONL trace file into a record list."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not a JSON span record: {exc}") \
                    from None
    return records


@dataclass
class PathStat:
    """Accumulated timing for one span path."""

    count: int = 0
    total_us: float = 0.0
    self_us: float = 0.0

    def add(self, total_us: float, self_us: float) -> None:
        self.count += 1
        self.total_us += total_us
        self.self_us += self_us


@dataclass
class TraceProfile:
    """One analyzed trace: path stats plus forest-level summary."""

    paths: dict[str, PathStat] = field(default_factory=dict)
    spans: int = 0
    roots: int = 0
    wall_us: float = 0.0
    #: (path, total_us, self_us) steps of the longest root's slowest
    #: descent, root first.
    critical: list[tuple[str, float, float]] = field(default_factory=list)


def _forest(records: list[dict]):
    """(by_id, children, roots): links resolved, dangling parents
    promoted to roots."""
    by_id = {rec["id"]: rec for rec in records}
    children: dict[str, list[dict]] = {}
    roots: list[dict] = []
    for rec in records:
        parent = rec.get("parent")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(rec)
        else:
            roots.append(rec)
    return by_id, children, roots


def aggregate(records: list[dict]) -> TraceProfile:
    """Fold a span-record list into a :class:`TraceProfile`."""
    profile = TraceProfile(spans=len(records))
    if not records:
        return profile
    by_id, children, roots = _forest(records)
    profile.roots = len(roots)
    profile.wall_us = sum(rec["dur_us"] for rec in roots)

    # Paths resolve iteratively (flows nest thousands of spans deep is
    # false today, but recursion limits are not a contract we want).
    path_cache: dict[str, str] = {}

    def path_of(rec: dict) -> str:
        chain: list[dict] = []
        node = rec
        prefix = ""
        while True:
            cached = path_cache.get(node["id"])
            if cached is not None:
                prefix = cached
                break
            chain.append(node)
            parent = node.get("parent")
            if parent is None or parent not in by_id:
                break
            node = by_id[parent]
        text = prefix
        for entry in reversed(chain):
            text = f"{text}/{entry['name']}" if text else entry["name"]
            path_cache[entry["id"]] = text
        return path_cache[rec["id"]]

    for rec in records:
        child_us = sum(c["dur_us"] for c in children.get(rec["id"], ()))
        self_us = max(0.0, rec["dur_us"] - child_us)
        stat = profile.paths.setdefault(path_of(rec), PathStat())
        stat.add(rec["dur_us"], self_us)

    profile.critical = critical_path(records)
    return profile


def critical_path(records: list[dict]) -> list[tuple[str, float, float]]:
    """The slowest descent from the longest root:
    ``[(path, total_us, self_us), ...]`` root first."""
    if not records:
        return []
    _, children, roots = _forest(records)
    node = max(roots, key=lambda rec: rec["dur_us"])
    steps = []
    path = ""
    while True:
        path = f"{path}/{node['name']}" if path else node["name"]
        kids = children.get(node["id"], [])
        child_us = sum(c["dur_us"] for c in kids)
        steps.append((path, node["dur_us"],
                      max(0.0, node["dur_us"] - child_us)))
        if not kids:
            return steps
        node = max(kids, key=lambda rec: rec["dur_us"])


# -- rendering ----------------------------------------------------------------


def _fmt_us(us: float) -> str:
    """Adaptive duration: us under 1 ms, ms under 1 s, else seconds."""
    if abs(us) >= 1e6:
        return f"{us / 1e6:.2f}s"
    if abs(us) >= 1e3:
        return f"{us / 1e3:.1f}ms"
    return f"{us:.0f}us"


def render_report(profile: TraceProfile, top: int = 20,
                  by: str = "self") -> str:
    """Human-readable profile: summary, critical path, hot paths."""
    if by not in ("self", "total"):
        raise ValueError(f"sort key must be 'self' or 'total', got {by!r}")
    lines = [f"spans {profile.spans}  roots {profile.roots}  "
             f"wall {_fmt_us(profile.wall_us)}", ""]
    if profile.critical:
        lines.append("critical path (slowest child at every level):")
        for path, total_us, self_us in profile.critical:
            name = path.rsplit("/", 1)[-1]
            depth = path.count("/")
            lines.append(f"  {'  ' * depth}{name:<{max(1, 36 - 2 * depth)}}"
                         f" {_fmt_us(total_us):>10}"
                         f"  self {_fmt_us(self_us):>10}")
        lines.append("")
    key = (lambda item: item[1].self_us) if by == "self" \
        else (lambda item: item[1].total_us)
    ranked = sorted(profile.paths.items(), key=key, reverse=True)
    lines.append(f"hot paths by {by} time "
                 f"(top {min(top, len(ranked))} of {len(ranked)}):")
    lines.append(f"  {'self':>10} {'total':>10} {'count':>7}  path")
    for path, stat in ranked[:top]:
        lines.append(f"  {_fmt_us(stat.self_us):>10} "
                     f"{_fmt_us(stat.total_us):>10} {stat.count:>7}  "
                     f"{path}")
    return "\n".join(lines)


@dataclass
class PathDelta:
    """One aligned path in a trace diff."""

    path: str
    a: PathStat | None
    b: PathStat | None

    @property
    def d_self_us(self) -> float:
        return ((self.b.self_us if self.b else 0.0)
                - (self.a.self_us if self.a else 0.0))

    @property
    def d_total_us(self) -> float:
        return ((self.b.total_us if self.b else 0.0)
                - (self.a.total_us if self.a else 0.0))


def diff_profiles(a: TraceProfile, b: TraceProfile) -> list[PathDelta]:
    """Aligned per-path deltas, largest |self-time move| first."""
    deltas = [PathDelta(path, a.paths.get(path), b.paths.get(path))
              for path in sorted(a.paths.keys() | b.paths.keys())]
    deltas.sort(key=lambda d: abs(d.d_self_us), reverse=True)
    return deltas


def render_diff(a: TraceProfile, b: TraceProfile, top: int = 20,
                label_a: str = "A", label_b: str = "B") -> str:
    """Where did the wall-clock move between run *a* and run *b*?"""
    d_wall = b.wall_us - a.wall_us
    pct = (d_wall / a.wall_us * 100.0) if a.wall_us else 0.0
    lines = [f"wall {label_a} {_fmt_us(a.wall_us)} -> {label_b} "
             f"{_fmt_us(b.wall_us)}  ({'+' if d_wall >= 0 else ''}"
             f"{_fmt_us(d_wall)}, {pct:+.1f}%)", ""]
    deltas = [d for d in diff_profiles(a, b) if d.d_self_us != 0.0
              or d.a is None or d.b is None]
    lines.append(f"top self-time moves (top {min(top, len(deltas))} "
                 f"of {len(deltas)}):")
    lines.append(f"  {'d_self':>10} {'d_total':>10} "
                 f"{'count':>11}  path")
    for delta in deltas[:top]:
        count_a = delta.a.count if delta.a else 0
        count_b = delta.b.count if delta.b else 0
        mark = ""
        if delta.a is None:
            mark = "  [new]"
        elif delta.b is None:
            mark = "  [gone]"
        sign = "+" if delta.d_self_us >= 0 else ""
        signt = "+" if delta.d_total_us >= 0 else ""
        lines.append(f"  {sign + _fmt_us(delta.d_self_us):>10} "
                     f"{signt + _fmt_us(delta.d_total_us):>10} "
                     f"{count_a:>5}->{count_b:<5} "
                     f"{delta.path}{mark}")
    return "\n".join(lines)


def report_file(path: str | Path, top: int = 20, by: str = "self") -> str:
    """:func:`render_report` straight off a JSONL file (CLI path)."""
    return render_report(aggregate(read_spans(path)), top=top, by=by)


def diff_files(path_a: str | Path, path_b: str | Path,
               top: int = 20) -> str:
    """:func:`render_diff` straight off two JSONL files (CLI path)."""
    return render_diff(aggregate(read_spans(path_a)),
                       aggregate(read_spans(path_b)), top=top,
                       label_a=str(path_a), label_b=str(path_b))
