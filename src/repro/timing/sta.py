"""Arrival/required propagation and slack reporting.

One kernel backs :func:`run_sta`: per-level ``np.maximum.at`` /
``np.minimum.at`` scatter passes over the levelized CSR arrays of
:class:`repro.timing.graph.TimingGraph`.

STA is a pure max/min semiring over float64 — there are no
order-dependent floating-point sums — so the kernel produces arrivals,
requireds, endpoint slacks and ``worst_pred`` tie-breaks
**bit-identical** to a serial edge-by-edge loop (it reconstructs the
loop's first-edge-to-reach-the-max winner from the serial edge order).
That loop lives on as the test oracle ``tests/sta_oracle.py``; the
test suite and ``benchmarks/bench_sta.py --smoke`` assert the
equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math

import numpy as np

from repro.design import Design
from repro.obs import metrics, trace
from repro.timing.graph import TimingGraph, build_timing_graph
from repro.units import ps_to_ns

_NEG_INF = -math.inf
_POS_INF = math.inf


@dataclass
class TimingReport:
    """STA outcome for one design state.

    Slacks/arrivals are in ps.  ``endpoint_slack`` maps endpoint pin
    full-name -> slack; violating endpoints are those below zero —
    the tables' "#Vio. Paths" (one worst path per endpoint, the
    standard violation count a signoff report prints).

    The summary metrics (``wns_ps``, ``tns_ns``, ``num_violating``)
    are computed once on first access and cached — the table builders
    read them repeatedly.  Treat a report as immutable; derive a new
    report instead of editing ``endpoint_slack`` in place.
    """

    clock_period_ps: float
    graph: TimingGraph
    arrival: list[float]
    required: list[float]
    endpoint_slack: dict[str, float]
    worst_pred: list[int]
    _wns: float | None = field(default=None, init=False, repr=False,
                               compare=False)
    _tns: float | None = field(default=None, init=False, repr=False,
                               compare=False)
    _num_violating: int | None = field(default=None, init=False, repr=False,
                                       compare=False)

    @property
    def wns_ps(self) -> float:
        """Worst negative slack (0 when the design meets timing)."""
        if self._wns is None:
            if not self.endpoint_slack:
                self._wns = 0.0
            else:
                self._wns = min(0.0, min(self.endpoint_slack.values()))
        return self._wns

    @property
    def tns_ns(self) -> float:
        """Total negative slack in ns (paper's TNS unit)."""
        if self._tns is None:
            total = sum(s for s in self.endpoint_slack.values() if s < 0)
            self._tns = ps_to_ns(total)
        return self._tns

    @property
    def num_violating(self) -> int:
        if self._num_violating is None:
            self._num_violating = sum(
                1 for s in self.endpoint_slack.values() if s < 0)
        return self._num_violating

    @property
    def num_endpoints(self) -> int:
        return len(self.endpoint_slack)

    def violating_endpoints(self) -> list[tuple[str, float]]:
        """(pin, slack) for violations, worst first."""
        out = [(p, s) for p, s in self.endpoint_slack.items() if s < 0]
        out.sort(key=lambda t: t[1])
        return out

    def effective_freq_mhz(self) -> float:
        """Highest frequency the design would close at: 1/(T - WNS).

        With a non-positive effective period (a degenerate zero/negative
        clock constraint and no violations) there is no finite closing
        frequency; report +inf instead of dividing by zero.
        """
        period = self.clock_period_ps - self.wns_ps
        if period <= 0.0:
            return _POS_INF
        return 1e6 / period

    def slack_of(self, pin_full_name: str) -> float:
        return self.endpoint_slack[pin_full_name]

    def summary(self) -> dict[str, float]:
        return {
            "wns_ps": self.wns_ps,
            "tns_ns": self.tns_ns,
            "violating": self.num_violating,
            "endpoints": self.num_endpoints,
            "eff_freq_mhz": self.effective_freq_mhz(),
        }


def _forward_csr(csr: TimingGraph) -> np.ndarray:
    """Vectorized arrival sweep: one maximum-scatter per level."""
    arrival = np.full(csr.n, _NEG_INF, dtype=np.float64)
    if csr.src_idx.size:
        np.maximum.at(arrival, csr.src_idx, csr.src_launch)
    for lev in range(1, csr.num_levels):
        sel = csr.fwd_perm[csr.fwd_starts[lev]:csr.fwd_starts[lev + 1]]
        if not sel.size:
            continue
        cand = arrival[csr.edge_src[sel]] + csr.edge_delay[sel]
        np.maximum.at(arrival, csr.edge_dst[sel], cand)
    return arrival


def _backward_csr(csr: TimingGraph, period: float) -> np.ndarray:
    """Vectorized required sweep: one minimum-scatter per level."""
    required = np.full(csr.n, _POS_INF, dtype=np.float64)
    if csr.ep_idx.size:
        np.minimum.at(required, csr.ep_idx, period - csr.ep_setup)
    for group in range(csr.num_levels):
        sel = csr.bwd_perm[csr.bwd_starts[group]:csr.bwd_starts[group + 1]]
        if not sel.size:
            continue
        cand = required[csr.edge_dst[sel]] - csr.edge_delay[sel]
        np.minimum.at(required, csr.edge_src[sel], cand)
    return required


def _worst_pred_csr(csr: TimingGraph, arrival: np.ndarray) -> np.ndarray:
    """Reconstruct the serial loop's worst-arrival predecessors.

    The serial loop visits edges in ascending edge-id order and only
    overwrites on a strict improvement, so each pin's predecessor is
    the *lowest-id* edge whose candidate equals the final arrival —
    unless the launch initialization already equals it (no strict
    improvement ever happened, predecessor stays -1).
    """
    num_edges = csr.num_edges
    pred = np.full(csr.n, -1, dtype=np.int64)
    if not num_edges:
        return pred
    launch = np.full(csr.n, _NEG_INF, dtype=np.float64)
    if csr.src_idx.size:
        np.maximum.at(launch, csr.src_idx, csr.src_launch)
    src_arr = arrival[csr.edge_src]
    cand = src_arr + csr.edge_delay
    hits = (src_arr != _NEG_INF) & (cand == arrival[csr.edge_dst]) \
        & (arrival[csr.edge_dst] != launch[csr.edge_dst])
    eid = np.where(hits, np.arange(num_edges, dtype=np.int64), num_edges)
    first = np.full(csr.n, num_edges, dtype=np.int64)
    np.minimum.at(first, csr.edge_dst, eid)
    found = first < num_edges
    pred[found] = csr.edge_src[first[found]]
    return pred


def _propagate_csr(graph: TimingGraph, period: float
                   ) -> tuple[list[float], list[float],
                              dict[str, float], list[int]]:
    """Levelized numpy propagation — bit-identical to the serial loop."""
    arrival = _forward_csr(graph)
    required = _backward_csr(graph, period)
    worst_pred = _worst_pred_csr(graph, arrival)
    arrival = arrival.tolist()

    endpoint_slack: dict[str, float] = {}
    pins = graph.pins
    for idx, setup in zip(graph.ep_idx.tolist(), graph.ep_setup.tolist()):
        at = arrival[idx]
        if at == _NEG_INF:
            continue
        endpoint_slack[pins[idx].full_name] = (period - setup) - at

    return (arrival, required.tolist(), endpoint_slack,
            worst_pred.tolist())


def run_sta(design: Design, graph: TimingGraph | None = None
            ) -> TimingReport:
    """Full STA at the design's clock constraint.

    Pass a prebuilt *graph* to skip reconstruction when the netlist
    and routing have not changed structurally (parasitics baked into
    arc delays do change with routing, so rebuild — or patch through
    :class:`repro.timing.incremental.IncrementalSta` — after
    reroutes).
    """
    with trace.span("sta.full") as span:
        if graph is None:
            with trace.span("sta.build_graph"):
                graph = build_timing_graph(design)
        period = design.clock_period_ps
        arrival, required, endpoint_slack, worst_pred = \
            _propagate_csr(graph, period)
        n_arcs = 2 * graph.num_edges
        metrics.inc("sta.full_runs")
        # Forward + backward pass each visit every arc once.
        metrics.inc("sta.arc_propagations", n_arcs)
        span.set(arcs=n_arcs)

    return TimingReport(clock_period_ps=period, graph=graph,
                        arrival=arrival, required=required,
                        endpoint_slack=endpoint_slack,
                        worst_pred=worst_pred)
