"""Metal Layer Sharing: selection policies and application.

Three ways to pick the MLS net set, mirroring the paper's comparisons:

* :func:`~repro.mls.sota.sota_select` — the state-of-the-art heuristic
  [Pentapati & Lim, TVLSI'22]: wirelength/congestion-thresholded,
  *net-level timing blind* — the baseline GNN-MLS beats;
* :func:`~repro.mls.oracle.oracle_select` — exhaustive per-net what-if
  STA, the "computationally prohibitive" exact policy the paper's GNN
  approximates (tractable here at simulator scale; also the label
  source for training);
* the GNN decider in :mod:`repro.core` — the paper's contribution.

:mod:`repro.mls.apply` turns a selection into a routed design.
"""

from repro.mls.sota import sota_select
from repro.mls.oracle import oracle_select, oracle_labels, NetLabel
from repro.mls.apply import route_with_mls

__all__ = [
    "sota_select",
    "oracle_select",
    "oracle_labels",
    "NetLabel",
    "route_with_mls",
]
