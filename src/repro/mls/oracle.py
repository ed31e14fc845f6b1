"""Exact what-if oracle for MLS decisions and training labels.

For every candidate 2-D net, probes both routings and labels the net
by its delay delta.  This is the "iterative STA" policy the paper
declares computationally prohibitive at commercial scale — at our
simulator scale it is tractable, which lets us (a) generate the
supervised fine-tuning labels of Algorithm 1, and (b) report an
upper-bound policy the GNN can be compared against in ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.design import Design
from repro.netlist.net import Net
from repro.route.router import GlobalRouter, RoutingResult
from repro.timing.incremental import net_whatif_delta

#: A net must improve its worst sink by at least this much (ps) to be
#: selected — hysteresis against churn on near-zero deltas.
DEFAULT_GAIN_EPS_PS = 0.25


@dataclass(frozen=True)
class NetLabel:
    """Oracle verdict for one net.

    ``delta_ps`` is the MLS-on minus MLS-off delay at the worst sink
    (negative = MLS helps).  ``label`` is the binary training target
    delta(n) of the paper.
    """

    net_name: str
    delta_ps: float
    applied: bool
    label: int

    @property
    def helps(self) -> bool:
        return self.label == 1


def candidate_nets(design: Design) -> list[Net]:
    """2-D signal nets — the MLS decision space."""
    tiers = design.require_tiers()
    return [net for net in design.netlist.signal_nets()
            if len(tiers.net_tiers(net)) == 1]


def oracle_labels(design: Design, router: GlobalRouter,
                  result: RoutingResult,
                  nets: list[Net] | None = None
                  ) -> dict[str, NetLabel]:
    """Probe *nets* (default: all 2-D nets) and label each one.

    ``probe_net`` restores the grid after each probe, so probes are
    independent of their order.
    """
    if nets is None:
        nets = candidate_nets(design)
    labels: dict[str, NetLabel] = {}
    for net in nets:
        delta = net_whatif_delta(design, router, result, net)
        worst = delta.worst_delta_ps()
        good = delta.applied and worst <= -DEFAULT_GAIN_EPS_PS
        labels[net.name] = NetLabel(net_name=net.name, delta_ps=worst,
                                    applied=delta.applied,
                                    label=1 if good else 0)
    return labels


def oracle_select(design: Design, router: GlobalRouter,
                  result: RoutingResult,
                  nets: list[Net] | None = None) -> set[str]:
    """The exact policy: MLS exactly where the what-if says it helps."""
    labels = oracle_labels(design, router, result, nets=nets)
    return {name for name, lab in labels.items() if lab.helps}
