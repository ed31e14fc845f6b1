"""Static timing analysis.

A full forward/backward STA over the pin-level timing graph: arrival
times from input ports and sequential launch points, required times
from the clock constraint back through endpoints (flop D/SI pins,
macro data pins, output ports), slacks, WNS/TNS, violating-endpoint
counts, K-worst path extraction and per-net what-if deltas.

This engine is the reproduction's stand-in for Innovus signoff STA:
the MLS oracle, the SOTA baseline and the GNN's training labels all
consume it, exactly as the paper's flow consumes commercial STA.
"""

from repro.timing.delay import cell_output_delay, setup_time, PORT_DRIVE_RES
from repro.timing.graph import TimingGraph, build_timing_graph
from repro.timing.sta import TimingReport, run_sta
from repro.timing.paths import TimingPath, extract_worst_paths
from repro.timing.incremental import (IncrementalSta, WhatIfDelta,
                                      net_whatif_delta)

__all__ = [
    "cell_output_delay",
    "setup_time",
    "PORT_DRIVE_RES",
    "TimingGraph",
    "build_timing_graph",
    "TimingReport",
    "run_sta",
    "TimingPath",
    "extract_worst_paths",
    "IncrementalSta",
    "WhatIfDelta",
    "net_whatif_delta",
]
