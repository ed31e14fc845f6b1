"""Netlist flat-serialization benchmark — prepare-cache pickle economics.

Prepares each design through the shared flow front-end
(:func:`repro.core.flow.prepare_design`) and measures the snapshot
payload every prepare-cache entry and ``snapshot_map`` fan-out actually
ships: ``dumps_snapshot(design)`` bytes plus dump/load wall-clock.
Writes ``BENCH_netlist.json`` at the repo root.

The ``object_graph_bytes`` baseline column is frozen: it was measured
at the seed commit (recursive pin->net->pin pickling, inside a thread
with a 1 GB stack and a 5M recursion limit — the only way that code
survived MAERI-128) and must never be re-measured against current
code.  The shipped flat core is gated against it.

Gates (non-zero exit on failure):

* restored snapshot is digest-identical to the prepared design
  (netlist + placement — the round-trip correctness contract);
* flat payload is >= ``SHRINK_GATE`` x smaller than the frozen
  object-graph baseline on every design with a baseline;
* scale budgets on the 256PE-class design: peak payload bytes always,
  prepare + dump wall-clock only on multi-core boxes (single-core CI
  wall-clock is noise — same honesty rule as ``bench_place``).

Run directly::

    PYTHONPATH=src:. python benchmarks/bench_netlist.py          # all sizes
    PYTHONPATH=src:. python benchmarks/bench_netlist.py --smoke  # CI gate
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro.core.flow import FlowConfig, prepare_design        # noqa: E402
from repro.harness.designs import get_benchmark               # noqa: E402
from repro.parallel import usable_cores                       # noqa: E402
from repro.parallel.pool import dumps_snapshot, loads_snapshot  # noqa: E402

from tests.golden_util import netlist_digest, placement_digest  # noqa: E402

BENCH_JSON = REPO_ROOT / "BENCH_netlist.json"
TREND_JSONL = REPO_ROOT / "benchmarks" / "results" / "trend.jsonl"

#: Flat payload must be at least this many times smaller than the
#: frozen object-graph baseline (ISSUE 6 acceptance: >= 3x on MAERI-128).
SHRINK_GATE = 3.0

#: dumps_snapshot(prepared design) at the seed commit (object-graph
#: pickle; MAERI-128 measured in a 1 GB-stack helper thread because the
#: main thread segfaulted).  Frozen — do not re-measure.
OBJECT_GRAPH_BASELINE_BYTES = {
    "maeri16_hetero": 723_383,
    "maeri128_hetero": 5_330_335,
}

#: Scale budgets for the CI ``netlist-scale`` job (256PE-class design).
#: Bytes are deterministic; seconds carry generous headroom for shared
#: runners and only gate on multi-core boxes.
SCALE_BUDGETS = {
    "maeri256_homo": {
        "peak_pickle_bytes": 4_500_000,
        "prepare_s": 60.0,
        "dump_s": 5.0,
    },
}


def bench_design(key: str, repeats: int) -> dict:
    spec = get_benchmark(key)
    config = FlowConfig(selector="none",
                        target_freq_mhz=spec.target_freq_mhz)

    t0 = time.perf_counter()
    design = prepare_design(spec.factory, spec.tech(), spec.seeds(),
                            config)
    prepare_s = time.perf_counter() - t0

    payload = dumps_snapshot(design)
    dump_s = min(_timed(lambda: dumps_snapshot(design))
                 for _ in range(repeats))
    load_s = min(_timed(lambda: loads_snapshot(payload))
                 for _ in range(repeats))

    restored = loads_snapshot(payload)
    roundtrip_ok = (
        netlist_digest(restored.netlist) == netlist_digest(design.netlist)
        and placement_digest(restored) == placement_digest(design))

    baseline = OBJECT_GRAPH_BASELINE_BYTES.get(key)
    return {
        "design": spec.paper_name,
        "key": key,
        "instances": len(design.netlist.instances),
        "nets": len(design.netlist.nets),
        "prepare_s": round(prepare_s, 3),
        "flat_pickle_bytes": len(payload),
        "object_graph_bytes": baseline,
        "shrink_x": round(baseline / len(payload), 2) if baseline else None,
        "dump_s": round(dump_s, 4),
        "load_s": round(load_s, 4),
        "roundtrip_identical": roundtrip_ok,
    }


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _gates(rows: list[dict], cores: int) -> list[str]:
    failures = []
    for row in rows:
        name = row["key"]
        if not row["roundtrip_identical"]:
            failures.append(f"{name}: snapshot round trip is not "
                            "digest-identical")
        if row["shrink_x"] is not None and row["shrink_x"] < SHRINK_GATE:
            failures.append(
                f"{name}: flat payload only {row['shrink_x']:.2f}x "
                f"smaller than object-graph baseline "
                f"(< {SHRINK_GATE:.1f}x gate)")
        budget = SCALE_BUDGETS.get(name)
        if budget is None:
            continue
        if row["flat_pickle_bytes"] > budget["peak_pickle_bytes"]:
            failures.append(
                f"{name}: payload {row['flat_pickle_bytes']} B over the "
                f"{budget['peak_pickle_bytes']} B budget")
        if cores > 1:
            if row["prepare_s"] > budget["prepare_s"]:
                failures.append(
                    f"{name}: prepare took {row['prepare_s']:.1f} s "
                    f"(> {budget['prepare_s']:.0f} s budget)")
            if row["dump_s"] > budget["dump_s"]:
                failures.append(
                    f"{name}: dump took {row['dump_s']:.2f} s "
                    f"(> {budget['dump_s']:.1f} s budget)")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: MAERI-128 shrink + 256PE budgets, "
                             "fewer repeats")
    parser.add_argument("--repeats", type=int, default=None,
                        help="dump/load timing repeats (best-of)")
    args = parser.parse_args(argv)

    keys = ["maeri128_hetero", "maeri256_homo"] if args.smoke \
        else ["maeri16_hetero", "maeri128_hetero", "maeri256_homo"]
    repeats = args.repeats or (2 if args.smoke else 5)
    cores = usable_cores()

    rows = []
    for key in keys:
        print(f"benchmarking {key} ...", flush=True)
        row = bench_design(key, repeats)
        rows.append(row)
        for field, value in row.items():
            print(f"  {field:<24}{value}")

    record = {"smoke": args.smoke, "repeats": repeats, "cpu_count": cores,
              "shrink_gate_x": SHRINK_GATE,
              "scale_budgets": SCALE_BUDGETS, "designs": rows}
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {BENCH_JSON}")

    from repro.obs.trend import append_trend
    legs = {f"netlist.{row['key']}.{leg}": row[leg]
            for row in rows
            for leg in ("prepare_s", "dump_s", "load_s")}
    append_trend(TREND_JSONL, "netlist", legs, smoke=args.smoke,
                 meta={"cpu_count": cores, "repeats": repeats})

    failures = _gates(rows, cores)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
