"""Human-readable timing reports (signoff-style).

Renders the classic per-path report — launch, arc-by-arc cell/net
delays, arrival vs required, slack — plus a design-level summary
histogram.  Used by the CLI and handy when debugging why a specific
endpoint violates.
"""

from __future__ import annotations

from repro.timing.paths import TimingPath, extract_worst_paths
from repro.timing.sta import TimingReport

#: Buckets of the summary's endpoint-slack histogram.
HISTOGRAM_BINS = 8


def render_path(report: TimingReport, path: TimingPath) -> str:
    """One path in report form."""
    graph = report.graph
    lines = [
        f"Path to {path.endpoint}",
        f"  slack {path.slack_ps:9.1f} ps   "
        f"arrival {path.arrival_ps:9.1f} ps   depth {path.depth}",
        f"  {'arc':<6}{'delay':>9}  {'arrival':>9}  point",
        "  " + "-" * 64,
    ]
    prev_idx = None
    for pin in path.pins:
        idx = graph.pin_index[pin.full_name]
        arrival = report.arrival[idx]
        if prev_idx is None:
            kind, delay = "launch", arrival
        else:
            delay = arrival - report.arrival[prev_idx]
            kind = "net" if graph.pins[prev_idx].drives else "cell"
        lines.append(f"  {kind:<6}{delay:>9.1f}  {arrival:>9.1f}  "
                     f"{pin.full_name}")
        prev_idx = idx
    return "\n".join(lines)


def render_summary(report: TimingReport, num_paths: int = 5) -> str:
    """Design-level summary: headline metrics, slack histogram, and the
    worst *num_paths* paths."""
    lines = [
        "Timing summary",
        "=" * 48,
        f"clock period   : {report.clock_period_ps:9.1f} ps",
        f"WNS            : {report.wns_ps:9.1f} ps",
        f"TNS            : {report.tns_ns:9.2f} ns",
        f"violating      : {report.num_violating} / "
        f"{report.num_endpoints} endpoints",
        f"effective freq : {report.effective_freq_mhz():9.0f} MHz",
        "",
        "Slack histogram (endpoints)",
    ]
    slacks = sorted(report.endpoint_slack.values())
    if slacks:
        lo, hi = slacks[0], slacks[-1]
        span = max(hi - lo, 1e-9)
        counts = [0] * HISTOGRAM_BINS
        for s in slacks:
            b = min(int((s - lo) / span * HISTOGRAM_BINS),
                    HISTOGRAM_BINS - 1)
            counts[b] += 1
        peak = max(counts)
        for b, count in enumerate(counts):
            left = lo + b * span / HISTOGRAM_BINS
            right = lo + (b + 1) * span / HISTOGRAM_BINS
            bar = "#" * max(1 if count else 0,
                            int(40 * count / max(peak, 1)))
            lines.append(f"  [{left:8.1f},{right:8.1f}) {count:>6}  {bar}")
    lines.append("")
    for path in extract_worst_paths(report, k=num_paths):
        lines.append(render_path(report, path))
        lines.append("")
    return "\n".join(lines)
