"""Design-for-Test: scan, fault simulation, and the paper's two MLS DFT
strategies.

The chain of capabilities mirrors a production test flow at simulator
scale: full-scan insertion (DFF -> SDFF swap + placement-ordered chain
stitching), a collapsed stuck-at fault universe, 64-way bit-parallel
random-pattern fault simulation on the scan view, and the Figure 6
strategies — net-based (MUX) and wire-based (scan-FF) repair of the
open connections MLS creates in hybrid-bonded dies (Table III / Table
VI).
"""

from repro.dft.scan import ScanChain, insert_scan
from repro.dft.faults import Fault, FaultUniverse, build_fault_universe
from repro.dft.fault_sim import FaultSimResult, simulate_faults
from repro.dft.logic3 import eval_gate, truth_table
from repro.dft.mls_dft import (
    MLSDftResult,
    NET_BASED,
    WIRE_BASED,
    apply_mls_dft,
    apply_net_based_dft,
    apply_wire_based_dft,
    die_test_fault_sim,
    untestable_fault_fraction,
)

__all__ = [
    "ScanChain",
    "insert_scan",
    "Fault",
    "FaultUniverse",
    "build_fault_universe",
    "FaultSimResult",
    "simulate_faults",
    "eval_gate",
    "truth_table",
    "MLSDftResult",
    "NET_BASED",
    "WIRE_BASED",
    "apply_mls_dft",
    "apply_net_based_dft",
    "apply_wire_based_dft",
    "die_test_fault_sim",
    "untestable_fault_fraction",
]
