#!/usr/bin/env python3
"""Quickstart — GNN-MLS on a small MAERI fabric in one page.

Builds a 16-PE heterogeneous (16 nm logic + 28 nm memory) 3D IC,
runs the paper's Figure 4 flow with the GNN selector, and prints the
No-MLS baseline vs GNN-MLS comparison.

Run:  python examples/quickstart.py
"""

from repro import FlowConfig, TechSetup, run_flow
from repro.netlist.generators import MaeriConfig, generate_maeri


def factory(libraries, seed):
    """A 16-PE MAERI-like accelerator (paper's motivation design)."""
    return generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                          libraries, seed)


def main() -> None:
    tech = TechSetup.build("16nm", "28nm", beol_layers=6)

    print("== Step 1: baseline (no MLS) ==")
    base = run_flow(factory, tech, 1,
                    FlowConfig(selector="none", target_freq_mhz=1800,
                               pdn=False))
    print(f"  WNS {base.row()['wns_ps']:8.1f} ps   "
          f"TNS {base.row()['tns_ns']:7.2f} ns   "
          f"violations {base.row()['vio_paths']:.0f}")

    print("== Step 2: GNN-MLS (train + decide + targeted routing) ==")
    gnn = run_flow(factory, tech, 1,
                   FlowConfig(selector="gnn", target_freq_mhz=1800,
                              num_paths=300, num_labeled=150, pdn=False))
    row = gnn.row()
    print(f"  WNS {row['wns_ps']:8.1f} ps   TNS {row['tns_ns']:7.2f} ns   "
          f"violations {row['vio_paths']:.0f}")
    print(f"  MLS applied to {row['mls_nets']:.0f} nets "
          f"(selection+training took {row['runtime_min']:.1f} min)")

    wns_gain = 100 * (1 - row["wns_ps"] / base.row()["wns_ps"]) \
        if base.row()["wns_ps"] < 0 else 0.0
    print(f"== Result: WNS improved by {wns_gain:.0f}% ==")


if __name__ == "__main__":
    main()
