"""Routing / congestion reports.

Per-layer-pair utilization tables and an ASCII congestion heatmap per
tier — the view Figure 9(b)-(c) gives of how PDN and MLS nets share
the top metals.
"""

from __future__ import annotations

import numpy as np

from repro.route.router import RoutingResult

_SCALE = " .:-=+*#%@"


def render_utilization(routing: RoutingResult) -> str:
    """Per (tier, pair) mean utilization and overflow-cell counts."""
    grid = routing.grid
    lines = ["Routing utilization", "=" * 44,
             f"{'tier':<6}{'pair':<6}{'mean util %':>12}{'overflow':>10}"]
    for tier in range(len(grid.usage)):
        for pair in range(grid.num_pairs(tier)):
            lines.append(
                f"{tier:<6}{pair:<6}"
                f"{100 * grid.utilization(tier, pair):>11.1f}%"
                f"{grid.overflow_cells(tier, pair):>10}")
    stats = routing.stats()
    lines.append("")
    lines.append(f"wirelength  : {stats['wirelength_m']:.3f} m")
    lines.append(f"MLS nets    : {stats['mls_nets']:.0f}")
    lines.append(f"F2F vias    : {stats['f2f_vias']:.0f}")
    lines.append(f"overflow    : {stats['overflow_nets']:.0f} nets")
    return "\n".join(lines)


def render_heatmap(routing: RoutingResult, tier: int, pair: int) -> str:
    """ASCII heatmap of one (tier, pair)'s demand/capacity ratio,
    sampled down to at most about 64 x 32 characters."""
    grid = routing.grid
    usage = grid.usage[tier][pair] / grid.capacity[tier][pair]
    step_x = max(1, usage.shape[0] // 64)
    step_y = max(1, usage.shape[1] // 32)
    sampled = usage[::step_x, ::step_y]
    lines = [f"Congestion heatmap tier {tier} pair {pair} "
             f"(peak {usage.max():.2f}x capacity)"]
    # Transpose so y runs down the terminal.
    for row in np.asarray(sampled).T[::-1]:
        lines.append("".join(
            _SCALE[min(int(v * (len(_SCALE) - 1)), len(_SCALE) - 1)]
            for v in row))
    return "\n".join(lines)
