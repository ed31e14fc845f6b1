"""The paper's two DFT strategies for MLS-enabled hybrid-bonded designs.

During individual-die test, every MLS net is an *open*: its shared
trunk leaves the die through an F2F pad and never comes back
(Figure 3).  Downstream logic becomes uncontrollable, upstream logic
unobservable.  The repairs (Figure 6):

* **net-based** — a MUX at the re-entry point switches the downstream
  cone between the functional (open) path and a test stimulus; the
  outgoing signal is observed through the scan-chain redirect.  All
  crossings share the test-stimulus distribution, so their patterns
  are correlated — the mechanical reason this detects slightly fewer
  faults than the wire-based scheme.
* **wire-based** — additionally parks a scan flip-flop at the
  crossing: its D observes the outgoing signal (registered), its Q
  supplies an *independent* per-crossing stimulus through the MUX.
  More added logic (more total faults), better coverage, slightly
  worse WNS from the extra load — Table III's trade-off.

Both insert post-routing and ECO-reroute the touched nets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.design import Design
from repro.errors import DFTError
from repro.netlist.net import Net
from repro.route.router import GlobalRouter, RoutingResult
from repro.dft.faults import build_fault_universe
from repro.dft.fault_sim import FaultSimResult, simulate_faults

NET_BASED = "net-based"
WIRE_BASED = "wire-based"


@dataclass
class MLSDftResult:
    """Outcome of one DFT strategy evaluation (Table III row)."""

    strategy: str
    crossings: int
    cells_added: int
    total_faults: int
    detected_faults: int
    coverage_pct: float

    def summary(self) -> dict[str, float]:
        return {
            "strategy": self.strategy,
            "crossings": self.crossings,
            "cells_added": self.cells_added,
            "total_faults": self.total_faults,
            "detected_faults": self.detected_faults,
            "coverage_pct": self.coverage_pct,
        }


def _mls_nets(design: Design) -> list[Net]:
    routing = design.require_routing()
    applied = routing.mls_applied_nets()
    return [design.netlist.net(name) for name in sorted(applied)]


def _ensure_test_ports(design: Design) -> tuple[Net, Net]:
    """(test_mode net, test_stim net), creating ports on first use."""
    netlist = design.netlist
    placement = design.require_placement()
    tiers = design.require_tiers()
    fp = design.require_floorplan()
    nets = []
    for name, frac in (("test_mode", 0.4), ("test_stim", 0.6)):
        if name in netlist.ports:
            nets.append(netlist.port(name).pin.net)
            continue
        port = netlist.add_port(name, "in", false_path=True)
        net = netlist.add_net(f"{name}_net")
        net.attach(port.pin)
        tiers.set_port(name, 0)
        placement.set_port(name, fp.width * frac, 0.0)
        nets.append(net)
    return nets[0], nets[1]


def _insert_repair(design: Design, router: GlobalRouter,
                   result: RoutingResult, net: Net,
                   wire_based: bool, clock_name: str) -> int:
    """Insert the MUX (and FF) for one MLS net; returns cells added."""
    netlist = design.netlist
    placement = design.require_placement()
    tiers = design.require_tiers()
    fp = design.require_floorplan()
    test_mode, test_stim = _ensure_test_ports(design)
    driver_tier = tiers.of_pin(net.driver)
    region = "logic" if driver_tier == 0 else "memory"
    lib = design.tech.libraries[region]

    sinks = list(net.sinks)
    if not sinks:
        raise DFTError(f"MLS net {net.name} has no sinks to repair")
    cx = sum(placement.of_pin(s).x for s in sinks) / len(sinks)
    cy = sum(placement.of_pin(s).y for s in sinks) / len(sinks)
    cx, cy = fp.clamp(cx, cy)

    added = 0
    mux = netlist.add_instance(netlist.fresh_name(f"{net.name}_dftmux"),
                               lib.get("TGMUX"))
    mux.attrs["region"] = region
    mux.attrs["dft"] = "1"
    tiers.set_instance(mux.name, driver_tier)
    placement.set_instance(mux.name, cx, cy)
    added += 1

    # Move every sink behind the MUX.
    router.unroute_net(result, net)
    repaired = netlist.split_net_at_sinks(net, sinks)
    net.attach(mux.pin("A"))
    test_mode.attach(mux.pin("S"))
    repaired.attach(mux.output_pin)

    if wire_based:
        ff = netlist.add_instance(netlist.fresh_name(f"{net.name}_dftff"),
                                  lib.get("SDFF"))
        ff.attrs["region"] = region
        ff.attrs["dft"] = "1"
        tiers.set_instance(ff.name, driver_tier)
        placement.set_instance(ff.name, cx, cy)
        added += 1
        net.attach(ff.pin("D"))
        net.attach(ff.pin("SI"))       # chain stitching placeholder
        test_mode.attach(ff.pin("SE"))
        netlist.net(clock_name).attach(ff.clock_pin)
        q_net = netlist.add_net(netlist.fresh_name(f"{ff.name}_q"))
        q_net.attach(ff.output_pin)
        q_net.attach(mux.pin("B"))
        new_local = [repaired, q_net]
    else:
        test_stim.attach(mux.pin("B"))
        new_local = [repaired]

    # ECO routing: the trunk net keeps its MLS route; new local nets
    # and the test distribution get routed fresh.
    router.reroute_net(result, net, mls=net.name in design.mls_nets)
    for local in new_local:
        router.reroute_net(result, local, mls=False)
    return added, repaired.name


def apply_mls_dft(design: Design, router: GlobalRouter,
                  result: RoutingResult, strategy: str,
                  clock_name: str = "clk") -> tuple[int, int]:
    """Insert *strategy* repairs on every applied-MLS net.

    Returns (crossings repaired, cells added).  The shared test_mode /
    test_stim nets are re-routed once at the end.
    """
    if strategy not in (NET_BASED, WIRE_BASED):
        raise DFTError(f"unknown DFT strategy {strategy!r}")
    nets = _mls_nets(design)
    cells = 0
    repaired_names: list[str] = []
    for net in nets:
        added, repaired_name = _insert_repair(
            design, router, result, net,
            wire_based=(strategy == WIRE_BASED), clock_name=clock_name)
        cells += added
        repaired_names.append(repaired_name)
    # ECO buffering: the repair MUX now drives the whole original sink
    # set from the crossing point; restore drive like a post-route ECO
    # would.  The touched nets must be re-routed: release their stale
    # routes first, then route everything currently unrouted (the
    # rebuilt repaired nets plus the new repeater nets).
    from repro.opt.buffering import buffer_nets
    for name in repaired_names:
        router.unroute_net(result, design.netlist.net(name))
    buffer_nets(design, repaired_names)
    for net2 in design.netlist.signal_nets():
        if net2.name not in result.trees:
            router.reroute_net(result, net2, mls=False)
    # (Re-)route the shared test nets now that all sinks exist.
    for name in ("test_mode_net", "test_stim_net"):
        if name in design.netlist.nets:
            net = design.netlist.net(name)
            if net.sinks:
                router.unroute_net(result, net)
                router.reroute_net(result, net, mls=False)
    return len(nets), cells


def apply_net_based_dft(design: Design, router: GlobalRouter,
                        result: RoutingResult,
                        clock_name: str = "clk") -> tuple[int, int]:
    """Figure 6(a): MUX repair on every MLS net."""
    return apply_mls_dft(design, router, result, NET_BASED, clock_name)


def apply_wire_based_dft(design: Design, router: GlobalRouter,
                         result: RoutingResult,
                         clock_name: str = "clk") -> tuple[int, int]:
    """Figure 6(b): scan-FF + MUX repair on every MLS net."""
    return apply_mls_dft(design, router, result, WIRE_BASED, clock_name)


def die_test_fault_sim(design: Design, rng: np.random.Generator,
                       patterns: int = 192,
                       with_dft: bool = True,
                       max_faults: int | None = None
                       ) -> FaultSimResult:
    """Fault-simulate the individual-die test of *design*.

    MLS nets are open (cut); with DFT inserted, test_mode pins to 1
    and the driver side of every MLS net is observed through the
    repair; without, the opens simply eat coverage (the Figure 3
    motivation).
    """
    netlist = design.netlist
    mls = {n.name for n in _mls_nets(design)}
    universe = build_fault_universe(netlist)
    pinned = {"test_mode": 1} if with_dft and "test_mode" in netlist.ports \
        else {}
    extra = mls if with_dft else set()
    return simulate_faults(netlist, universe, rng, patterns=patterns,
                           cut_nets=mls, pinned_ports=pinned,
                           extra_observe=extra, max_faults=max_faults)


def untestable_fault_fraction(design: Design, rng: np.random.Generator,
                              patterns: int = 192) -> float:
    """Coverage loss (percentage points) caused by MLS opens with no
    DFT, versus the same design with its MLS nets intact."""
    netlist = design.netlist
    universe = build_fault_universe(netlist)
    base = simulate_faults(netlist, universe, rng, patterns=patterns)
    cut = die_test_fault_sim(design, rng, patterns=patterns, with_dft=False)
    return base.coverage_pct - cut.coverage_pct
