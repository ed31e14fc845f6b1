#!/usr/bin/env python3
"""DFT trade-off study — making MLS designs testable (Figure 6).

Every MLS net is an open connection during individual-die test
(Figure 3), so coverage craters without repair.  This example
quantifies the damage, then applies both of the paper's DFT
strategies and compares fault counts, coverage and timing cost
(Table III).

Run:  python examples/dft_tradeoff.py
"""

from repro import FlowConfig, TechSetup
from repro.core.flow import prepare_design
from repro.dft import (NET_BASED, WIRE_BASED, apply_mls_dft,
                       die_test_fault_sim, insert_scan)
from repro.mls import oracle_select, route_with_mls
from repro.netlist.generators import MaeriConfig, generate_maeri
from repro.rng import stream
from repro.timing import run_sta


def build():
    tech = TechSetup.build("16nm", "28nm", 6)
    seed = 4
    config = FlowConfig(selector="oracle", target_freq_mhz=1900,
                        with_scan=True)
    design = prepare_design(
        lambda libs, s: generate_maeri(MaeriConfig(pe_count=16,
                                                   bandwidth=8), libs, s),
        tech, seed, config)
    router, routing = route_with_mls(design, set())
    selected = oracle_select(design, router, routing)
    router, routing = route_with_mls(design, selected)
    return design, router, routing


def main() -> None:
    print("== The problem: MLS opens during die-level test ==")
    design, router, routing = build()
    print(f"  {len(routing.mls_applied_nets())} MLS nets "
          "(= open connections in each die's test)")
    broken = die_test_fault_sim(design, stream("dft-ex", 1),
                                patterns=128, with_dft=False)
    print(f"  die-test coverage without DFT: "
          f"{broken.coverage_pct:.2f}%  "
          f"({broken.detected_total}/{broken.total_faults} faults)")

    for strategy in (NET_BASED, WIRE_BASED):
        design, router, routing = build()
        wns_before = run_sta(design).wns_ps
        crossings, cells = apply_mls_dft(design, router, routing, strategy)
        wns_after = run_sta(design).wns_ps
        sim = die_test_fault_sim(design, stream("dft-ex", 1),
                                 patterns=128, with_dft=True)
        print(f"\n== {strategy} DFT ==")
        print(f"  repaired {crossings} crossings with {cells} cells")
        print(f"  total faults    : {sim.total_faults}")
        print(f"  detected faults : {sim.detected_total}")
        print(f"  coverage        : {sim.coverage_pct:.2f}%")
        print(f"  WNS cost        : {wns_before:.1f} -> "
              f"{wns_after:.1f} ps")


if __name__ == "__main__":
    main()
