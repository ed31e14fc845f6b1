"""PDN width/pitch sizing against the IR-drop target.

Section III-E: "the PDN is implemented with specific width and pitch
to ensure the IR-drop of all designs is within 10% of the lowest VDD
(0.81 V); the remaining routing resources are utilized for the 2D or
MLS nets."  The search sweeps a menu of (width, pitch) candidates from
least to most metal and returns the first meeting the target on both
tiers — minimizing PDN utilization maximizes the MLS resource.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.design import Design
from repro.errors import PDNError
from repro.pdn.grid import PdnConfig, build_pdn
from repro.pdn.irdrop import IRDropReport, solve_irdrop
from repro.power.domains import PowerPlan, default_power_plan

#: Candidate (width, pitch) pairs, least metal first.
DEFAULT_MENU: tuple[tuple[float, float], ...] = (
    (1.0, 14.0),
    (1.4, 10.0),
    (2.0, 7.0),
    (2.7, 9.0),
    (2.7, 7.0),
    (3.4, 7.0),
    (3.4, 5.5),
    (4.0, 5.0),
)


@dataclass
class PdnSizingResult:
    """Chosen geometry and the per-tier reports at that geometry."""

    config: PdnConfig
    reports: dict[int, IRDropReport]
    met_target: bool

    @property
    def worst_drop_pct(self) -> float:
        return max(r.drop_pct_of_lowest for r in self.reports.values())

    def summary(self) -> dict[str, float]:
        return {
            "width_um": self.config.width_um,
            "pitch_um": self.config.pitch_um,
            "utilization_pct": 100.0 * self.config.utilization,
            "worst_drop_pct": self.worst_drop_pct,
            "met_target": float(self.met_target),
        }


def size_pdn(design: Design, target_pct: float = 10.0,
             plan: PowerPlan | None = None) -> PdnSizingResult:
    """Pick the lightest menu entry whose worst-tier drop meets
    *target_pct*; falls back to the heaviest entry (flagged) if none
    does."""
    if target_pct <= 0:
        raise PDNError("target_pct must be positive")
    plan = plan or default_power_plan(design)
    last: PdnSizingResult | None = None
    for width, pitch in DEFAULT_MENU:
        config = PdnConfig(width_um=width, pitch_um=pitch)
        reports: dict[int, IRDropReport] = {}
        for tier in (0, 1):
            vdd = plan.domain_of_tier(tier).vdd
            grid = build_pdn(design, config, tier, vdd)
            reports[tier] = solve_irdrop(design, grid, plan)
        result = PdnSizingResult(config=config, reports=reports,
                                 met_target=all(
                                     r.drop_pct_of_lowest <= target_pct
                                     for r in reports.values()))
        last = result
        if result.met_target:
            return result
    assert last is not None
    return last
