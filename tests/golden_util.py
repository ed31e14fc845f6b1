"""Cross-subsystem behavioral digests for golden-fixture tests.

One dict of stable strings/numbers per design state: placement HPWL,
routed trees + extracted RC + congestion-grid occupancy, STA arrivals
and ``worst_pred`` tie-breaks, and die-test fault coverage.  The
digests read only *semantic* object state (names, floats, orders) —
never pickle bytes or ids — so they are valid across internal
representation changes.  The netlist-core refactor (ISSUE 6) pins its
"bit-identical before/after" guarantee on these.

Regenerate the checked-in fixtures with::

    PYTHONPATH=src:. python -m tests.golden_util

which rewrites ``tests/data/golden_equiv_{maeri,a7}.json``.  Only do
this for an *intentional* behavior change, never to paper over a diff.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"

#: Fixture keys -> builder kwargs for the two design families.
GOLDEN_FAMILIES = {
    "maeri": dict(family="maeri"),
    "a7": dict(family="a7"),
}


def _sha(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _f(value: float) -> str:
    """Exact float formatting (repr round-trips the bit pattern)."""
    return repr(float(value))


def netlist_digest(netlist) -> dict:
    """Iteration-order-sensitive digest of the netlist structure."""
    inst_lines = []
    for inst in netlist.instances.values():
        attrs = ",".join(f"{k}={v}" for k, v in inst.attrs.items())
        pins = ",".join(f"{p.name}:{p.direction}:{_f(p.cap_ff)}:"
                        f"{'-' if p.net is None else p.net.name}"
                        for p in inst.pins.values())
        inst_lines.append(f"{inst.name}|{inst.cell.name}|{attrs}|{pins}")
    net_lines = []
    for net in netlist.nets.values():
        driver = "-" if net.driver is None else net.driver.full_name
        sinks = ",".join(p.full_name for p in net.sinks)
        net_lines.append(f"{net.name}|{int(net.is_clock)}|{driver}|{sinks}")
    port_lines = [
        f"{p.name}|{p.direction}|{_f(p.pin.cap_ff)}|{p.tier_hint}|"
        f"{int(p.false_path)}" for p in netlist.ports.values()]
    return {
        "name": netlist.name,
        "instances": len(netlist.instances),
        "nets": len(netlist.nets),
        "ports": len(netlist.ports),
        "inst_sha": _sha(inst_lines),
        "net_sha": _sha(net_lines),
        "port_sha": _sha(port_lines),
    }


def placement_digest(design) -> dict:
    placement = design.require_placement()
    lines = []
    for name in design.netlist.instances:
        loc = placement.of_instance(name)
        lines.append(f"{name}|{_f(loc.x)}|{_f(loc.y)}|{loc.tier}")
    for name in design.netlist.ports:
        loc = placement.of_port(name)
        lines.append(f"port:{name}|{_f(loc.x)}|{_f(loc.y)}|{loc.tier}")
    return {"hpwl_um": _f(placement.hpwl()), "loc_sha": _sha(lines)}


def routing_digest(design) -> dict:
    routing = design.require_routing()
    tree_lines = []
    for name, tree in routing.trees.items():
        for node in tree.nodes:
            pin = "-" if node.pin is None else node.pin.full_name
            tree_lines.append(
                f"{name}|n{node.idx}|{_f(node.x)}|{_f(node.y)}|"
                f"{node.tier}|{pin}")
        for edge in tree.edges:
            tree_lines.append(
                f"{name}|e{edge.parent}>{edge.child}|{_f(edge.length)}|"
                f"{edge.tier}|{edge.pair}|{edge.via_hops}|{edge.n_f2f}|"
                f"{int(edge.shared)}|{int(edge.overflowed)}|"
                f"{_f(edge.escape_um)}")
    rc_lines = []
    for name, rc in routing.rc.items():
        sinks = ",".join(f"{k}:{_f(v)}" for k, v in rc.sink_delay_ps.items())
        rc_lines.append(
            f"{name}|{_f(rc.wire_cap_ff)}|{_f(rc.wire_res_ohm)}|"
            f"{_f(rc.load_ff)}|{_f(rc.wirelength_um)}|{sinks}")
    grid = routing.grid
    grid_lines = [f"f2f|{grid.f2f_usage.tobytes().hex()}"]
    for tier, pairs in enumerate(grid.usage):
        for pair, arr in enumerate(pairs):
            grid_lines.append(f"{tier}|{pair}|{arr.tobytes().hex()}")
    stats = {k: _f(v) for k, v in sorted(routing.stats().items())}
    return {
        "wirelength_um": _f(routing.wirelength_um()),
        "mls_applied": sorted(routing.mls_applied_nets()),
        "tree_sha": _sha(tree_lines),
        "rc_sha": _sha(rc_lines),
        "grid_sha": _sha(grid_lines),
        "stats": stats,
    }


def sta_digest(report) -> dict:
    graph = report.graph
    lines = []
    for idx, pin in enumerate(graph.pins):
        pred = report.worst_pred[idx]
        pred_name = "-" if pred < 0 else graph.pins[pred].full_name
        lines.append(f"{pin.full_name}|{_f(report.arrival[idx])}|"
                     f"{_f(report.required[idx])}|{pred_name}")
    slack_lines = [f"{name}|{_f(slack)}"
                   for name, slack in report.endpoint_slack.items()]
    return {
        "wns_ps": _f(report.wns_ps),
        "tns_ns": _f(report.tns_ns),
        "num_violating": report.num_violating,
        "arrival_sha": _sha(lines),
        "slack_sha": _sha(slack_lines),
    }


def fault_digest(sim) -> dict:
    return {
        "total_faults": sim.total_faults,
        "simulated_faults": sim.simulated_faults,
        "detected_collapsed": sim.detected_collapsed,
        "patterns": sim.patterns,
        "coverage_pct": _f(sim.coverage_pct),
    }


def build_golden_design(family: str):
    """One scanned, routed small design per family + its digests' inputs.

    Scan is inserted so the fault-simulation digest exercises the DFT
    structural-surgery path (swap_cell + net splits) too.
    """
    from repro.design import Design, TechSetup
    from repro.dft.mls_dft import die_test_fault_sim
    from repro.dft.scan import insert_scan
    from repro.mls import route_with_mls
    from repro.netlist.generators import (A7Config, MaeriConfig,
                                          generate_a7_dual_core,
                                          generate_maeri)
    from repro.opt import insert_buffers
    from repro.partition import partition_memory_on_logic
    from repro.place import place_design
    from repro.rng import SeedBundle
    from repro.timing import run_sta

    tech = TechSetup.build("16nm", "28nm", 6)
    seeds = SeedBundle(20250706)
    if family == "maeri":
        netlist = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                                 tech.libraries, seeds)
        freq = 1900.0
    else:
        netlist = generate_a7_dual_core(
            A7Config(word_width=8, stage_depth=2, cache_banks=1,
                     bus_width=4), tech.libraries, seeds)
        freq = 1000.0
    design = Design(netlist, tech, freq)
    design.tiers = partition_memory_on_logic(netlist)
    design.placement, design.floorplan = place_design(
        netlist, design.tiers, seeds)
    insert_scan(design)
    insert_buffers(design)
    route_with_mls(design, set())
    report = run_sta(design)
    sim = die_test_fault_sim(design, seeds.fresh("golden-die-test"),
                             patterns=64, with_dft=True, max_faults=4000)
    return design, report, sim


def design_digests(family: str) -> dict:
    design, report, sim = build_golden_design(family)
    return {
        "netlist": netlist_digest(design.netlist),
        "placement": placement_digest(design),
        "routing": routing_digest(design),
        "sta": sta_digest(report),
        "faults": fault_digest(sim),
    }


def golden_path(family: str) -> Path:
    return DATA_DIR / f"golden_equiv_{family}.json"


def main() -> None:
    for family in GOLDEN_FAMILIES:
        digests = design_digests(family)
        path = golden_path(family)
        path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
