#!/usr/bin/env python3
"""Mixed-node vs homogeneous integration — where MLS pays off.

Runs the same MAERI fabric as a heterogeneous stack (16 nm logic +
28 nm memory) and a homogeneous one (28 nm + 28 nm), comparing how
much each integration gains from SOTA-style vs GNN-selected Metal
Layer Sharing.  Reproduces the Table IV vs Table V contrast: hetero
designs gain the most (16 nm local wires are slow, the neighbour's
28 nm thick metals are fast), and indiscriminate SOTA can *hurt*
homogeneous stacks.

Run:  python examples/hetero_vs_homo.py
"""

from repro import FlowConfig, TechSetup, run_flow
from repro.netlist.generators import MaeriConfig, generate_maeri


def factory(libraries, seed):
    return generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                          libraries, seed)


def run_stack(name: str, tech: TechSetup, freq: float) -> None:
    print(f"\n=== {name} (target {freq:.0f} MHz) ===")
    rows = {}
    for selector in ("none", "sota", "gnn"):
        report = run_flow(
            factory, tech, 2,
            FlowConfig(selector=selector, target_freq_mhz=freq,
                       num_paths=300, num_labeled=150, pdn=False))
        rows[selector] = report.row()
    print(f"{'flow':<8}{'WNS (ps)':>12}{'TNS (ns)':>12}{'#vio':>8}"
          f"{'#MLS':>8}")
    for selector, row in rows.items():
        print(f"{selector:<8}{row['wns_ps']:>12.1f}{row['tns_ns']:>12.2f}"
              f"{row['vio_paths']:>8.0f}{row['mls_nets']:>8.0f}")
    base_tns = rows["none"]["tns_ns"]
    if base_tns < 0:
        gain = 100 * (1 - rows["gnn"]["tns_ns"] / base_tns)
        print(f"GNN-MLS TNS improvement vs No-MLS: {gain:.0f}%")


def main() -> None:
    run_stack("heterogeneous 16nm+28nm",
              TechSetup.build("16nm", "28nm", 6), freq=1900)
    run_stack("homogeneous 28nm+28nm",
              TechSetup.build("28nm", "28nm", 6), freq=1150)


if __name__ == "__main__":
    main()
