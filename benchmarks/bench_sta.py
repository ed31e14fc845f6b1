"""STA benchmark — seed loop vs CSR vs incremental update vs graph build.

Times the ways of answering "what is the slack now?" on the routed
no-MLS MAERI fabrics and writes ``BENCH_sta.json`` at the repo root:

* ``seed``        — the pre-CSR behavior: rebuild the list-of-lists
                    timing graph and run the reference Python
                    propagation loop (both from ``tests/sta_oracle.py``);
* ``serial``      — the reference loop on a prebuilt reference graph
                    (isolates the propagation kernel);
* ``csr``         — the levelized ``np.maximum.at``/``np.minimum.at``
                    scatter kernel on a prebuilt CSR graph;
* ``incremental`` — :class:`IncrementalSta.update` after a single-net
                    MLS reroute (the refine/oracle hot-loop shape);
* ``graph_build`` — ``IncrementalSta(design)`` on a routed design: the
                    CSR graph build plus the engine's set-up and first
                    full pass, which is what the flow's STA baseline
                    pays.

The no-MLS route that feeds them is timed once, on the freshly
prepared design (so it includes the route topology build), and goes
to the ledger as the ``route.<key>.serial_s`` leg.  The router's RC
walker is then timed over every routed tree (``rc_extract``, the
``route.<key>.rc_extract_s`` leg), and each of its results is checked
against the per-edge extractor in ``tests/route_oracle.py``.

Every timed variant is also checked for **bit-identical** reports
(arrival, required, endpoint slack, worst_pred) and parasitics — the
script exits non-zero on any divergence, which is what the CI smoke
job gates on.

Run directly::

    PYTHONPATH=src python benchmarks/bench_sta.py           # both sizes
    PYTHONPATH=src python benchmarks/bench_sta.py --smoke   # 16PE, CI
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))      # the oracle lives in tests/

from repro.core.flow import FlowConfig, prepare_design          # noqa: E402
from repro.harness.designs import (DEFAULT_EXPERIMENT_SEED,  # noqa: E402
                                    get_benchmark)
from repro.mls import route_with_mls                            # noqa: E402
from repro.mls.oracle import candidate_nets                     # noqa: E402
from repro.timing import (IncrementalSta, build_timing_graph,   # noqa: E402
                          run_sta)
from tests.route_oracle import extract_rc                       # noqa: E402
from tests.sta_oracle import build_list_graph, serial_sta       # noqa: E402

BENCH_JSON = REPO_ROOT / "BENCH_sta.json"
TREND_JSONL = REPO_ROOT / "benchmarks" / "results" / "trend.jsonl"

#: Single-net reroute toggles timed per design in the incremental leg.
INCR_TOGGLES = 6


def _best_of(fn, repeats: int) -> tuple[float, object]:
    """(best seconds, last result) over *repeats* calls."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _reports_identical(a, b) -> bool:
    return (a.arrival == b.arrival and a.required == b.required
            and a.worst_pred == b.worst_pred
            and a.endpoint_slack == b.endpoint_slack
            and list(a.endpoint_slack) == list(b.endpoint_slack))


def _rc_extract(router, routing, design, repeats: int
                ) -> tuple[float, bool]:
    """(best seconds, bit-identical) of the router's RC walker over
    every routed tree, checked against the per-edge oracle."""
    trees = list(routing.trees.values())
    extract = router.rc_tables.extract
    t_rc, got = _best_of(lambda: [extract(tree) for tree in trees],
                         repeats)
    stacks, f2f = design.tech.stacks, design.tech.f2f
    ok = True
    for tree, rc in zip(trees, got):
        want = extract_rc(tree, stacks, f2f)
        ok = ok and rc == want \
            and list(rc.sink_delay_ps) == list(want.sink_delay_ps)
    return t_rc, ok


def bench_design(key: str, repeats: int) -> dict:
    spec = get_benchmark(key)
    config = FlowConfig(selector="none",
                        target_freq_mhz=spec.target_freq_mhz)
    design = prepare_design(spec.factory, spec.tech(), DEFAULT_EXPERIMENT_SEED,
                            config)
    t0 = time.perf_counter()
    router, routing = route_with_mls(design, set())
    t_route = time.perf_counter() - t0
    t_rc, rc_ok = _rc_extract(router, routing, design, repeats)
    # Build both graphs outside the timers.
    graph = build_timing_graph(design)
    ref_graph = build_list_graph(design)

    t_seed, ref = _best_of(lambda: serial_sta(design), repeats)
    t_serial, serial = _best_of(
        lambda: serial_sta(design, graph=ref_graph), repeats)
    t_csr, vec = _best_of(lambda: run_sta(design, graph=graph), repeats)
    csr_ok = _reports_identical(vec, ref) and _reports_identical(serial,
                                                                 ref)

    t_build, inc = _best_of(lambda: IncrementalSta(design), repeats)
    incr_ok = _reports_identical(inc.report(), ref)
    nets = [n for n in candidate_nets(design)
            if routing.tree(n.name).wirelength() > 20][:INCR_TOGGLES]
    t_incr_total = 0.0
    for net in nets:
        mls_on = net.name not in design.mls_nets
        router.reroute_net(routing, net, mls=mls_on)
        t0 = time.perf_counter()
        rep = inc.update([net.name])
        t_incr_total += time.perf_counter() - t0
        incr_ok = incr_ok and _reports_identical(rep, run_sta(design))
    t_incr = t_incr_total / max(1, len(nets))

    return {
        "design": spec.paper_name,
        "key": key,
        "pins": len(graph.pins),
        "edges": graph.num_edges,
        "endpoints": len(ref.endpoint_slack),
        "route_ms": round(t_route * 1e3, 3),
        "rc_trees": len(routing.trees),
        "rc_extract_ms": round(t_rc * 1e3, 3),
        "seed_full_sta_ms": round(t_seed * 1e3, 3),
        "serial_kernel_ms": round(t_serial * 1e3, 3),
        "csr_kernel_ms": round(t_csr * 1e3, 3),
        "incremental_update_ms": round(t_incr * 1e3, 3),
        "graph_build_ms": round(t_build * 1e3, 3),
        "incremental_toggles": len(nets),
        "speedup_csr_vs_seed": round(t_seed / t_csr, 2),
        "speedup_csr_vs_serial_kernel": round(t_serial / t_csr, 2),
        "speedup_incremental_vs_seed": round(t_seed / t_incr, 2),
        "csr_bit_identical": csr_ok,
        "incremental_bit_identical": incr_ok,
        "rc_bit_identical": rc_ok,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="16PE only, fewer repeats (CI divergence "
                             "gate)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per variant (best-of)")
    args = parser.parse_args(argv)

    keys = ["maeri16_hetero"] if args.smoke \
        else ["maeri16_hetero", "maeri128_hetero"]
    repeats = args.repeats or (3 if args.smoke else 5)

    rows = []
    for key in keys:
        print(f"benchmarking {key} ...", flush=True)
        row = bench_design(key, repeats)
        rows.append(row)
        for field, value in row.items():
            print(f"  {field:<32}{value}")

    from repro.obs import metrics
    record = {"repeats": repeats, "smoke": args.smoke, "designs": rows,
              "metrics": metrics.snapshot()}
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {BENCH_JSON}")

    from repro.obs.trend import append_trend
    legs = {}
    for row in rows:
        for leg in ("seed_full_sta_ms", "serial_kernel_ms",
                    "csr_kernel_ms", "incremental_update_ms",
                    "graph_build_ms"):
            name = leg[:-3] + "_s"          # the ledger speaks seconds
            legs[f"sta.{row['key']}.{name}"] = row[leg] / 1e3
    append_trend(TREND_JSONL, "sta", legs, smoke=args.smoke,
                 meta={"repeats": repeats})
    route_legs = {}
    for row in rows:
        route_legs[f"route.{row['key']}.serial_s"] = row["route_ms"] / 1e3
        route_legs[f"route.{row['key']}.rc_extract_s"] = \
            row["rc_extract_ms"] / 1e3
    append_trend(TREND_JSONL, "route", route_legs, smoke=args.smoke)

    ok = all(r["csr_bit_identical"] and r["incremental_bit_identical"]
             and r["rc_bit_identical"] for r in rows)
    if not ok:
        print("FAIL: kernel divergence — reports or parasitics are not "
              "bit-identical", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
