#!/usr/bin/env python3
"""Mixed-node power delivery — Section III-E / Figure 7 / Figure 9.

Builds the heterogeneous power plan (0.9 V memory domain over a
0.81 V logic domain with level shifters on every crossing), sweeps PDN
stripe geometries against the 10 %-of-lowest-VDD IR-drop target, and
prints the logic-tier drop map.

Run:  python examples/pdn_design.py
"""

from repro import FlowConfig, TechSetup
from repro.core.flow import prepare_design
from repro.mls import route_with_mls
from repro.netlist.generators import MaeriConfig, generate_maeri
from repro.pdn import PdnConfig, build_pdn, size_pdn, solve_irdrop
from repro.power import default_power_plan, estimate_power


def main() -> None:
    tech = TechSetup.build("16nm", "28nm", 6)
    seed = 5
    design = prepare_design(
        lambda libs, s: generate_maeri(MaeriConfig(pe_count=16,
                                                   bandwidth=8), libs, s),
        tech, seed,
        FlowConfig(selector="none", target_freq_mhz=1500, activity=0.25))
    route_with_mls(design, set())
    plan = default_power_plan(design)

    print("== Power plan (Figure 7) ==")
    for domain in plan.domains:
        print(f"  tier {domain.tier} ({domain.name}): {domain.vdd} V")
    print(f"  level shifters inserted: "
          f"{design.notes.get('level_shifters', 0)}")
    power = estimate_power(design, plan, activity=0.25)
    print(f"  total power {power.total_mw:.1f} mW "
          f"(LS overhead {power.level_shifter_mw:.2f} mW)")

    print("\n== PDN geometry sweep ==")
    print(f"{'W (um)':>8}{'P (um)':>8}{'util %':>8}{'drop %':>8}")
    for width, pitch in ((1.0, 14.0), (2.0, 7.0), (3.4, 5.5)):
        config = PdnConfig(width, pitch)
        grid = build_pdn(design, config, tier=0,
                         vdd=plan.domain_of_tier(0).vdd)
        ir = solve_irdrop(design, grid, plan)
        print(f"{width:>8.1f}{pitch:>8.1f}"
              f"{100 * config.utilization:>8.1f}"
              f"{ir.drop_pct_of_lowest:>8.2f}")

    print("\n== Automatic sizing to the 10% target ==")
    sizing = size_pdn(design, target_pct=10.0, plan=plan)
    summary = sizing.summary()
    print(f"  chosen: W={summary['width_um']}um P={summary['pitch_um']}um "
          f"-> utilization {summary['utilization_pct']:.1f}%, "
          f"worst drop {summary['worst_drop_pct']:.2f}%")
    print("  (what's left of the top pair is the MLS routing resource)")

    print("\n== Logic-tier IR-drop map (Figure 9a) ==")
    grid = build_pdn(design, sizing.config, tier=0,
                     vdd=plan.domain_of_tier(0).vdd)
    ir = solve_irdrop(design, grid, plan)
    drop = ir.drop_map_mv()
    scale = " .:-=+*#%@"
    for row in drop[::max(1, drop.shape[0] // 12)]:
        print("  " + "".join(
            scale[min(int(v / max(drop.max(), 1e-9) * 9), 9)]
            for v in row[::max(1, drop.shape[1] // 40)]))
    print(f"  peak drop: {drop.max():.1f} mV")


if __name__ == "__main__":
    main()
