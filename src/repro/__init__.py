"""GNN-MLS reproduction: GNN-assisted Metal Layer Sharing for
mixed-node 3D ICs (DAC 2025).

Public API tour:

* :mod:`repro.tech` / :mod:`repro.netlist` — technology + netlist model
  and the MAERI / A7 benchmark generators;
* :mod:`repro.partition`, :mod:`repro.place`, :mod:`repro.route`,
  :mod:`repro.timing`, :mod:`repro.opt` — the physical-design substrate
  (memory-on-logic partitioning, bisection placement, MLS-aware
  routing, STA);
* :mod:`repro.mls` — SOTA baseline, exact oracle, MLS application;
* :mod:`repro.dft`, :mod:`repro.power`, :mod:`repro.pdn` — test,
  power and power-delivery substrates;
* :mod:`repro.nn` — NumPy autograd + Transformer layers;
* :mod:`repro.core` — the paper's contribution and the Figure 4 flow;
* :mod:`repro.harness` — canonical benchmark configs and table/figure
  builders used by ``benchmarks/`` and ``examples/``.
"""

from repro.design import Design, TechSetup
from repro.core.flow import FlowConfig, FlowReport, run_flow

__version__ = "1.1.0"

__all__ = [
    "Design",
    "TechSetup",
    "FlowConfig",
    "FlowReport",
    "run_flow",
    "__version__",
]
