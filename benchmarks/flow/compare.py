"""Compare two sets of flow-benchmark runs against BENCHMARK.json bounds.

    python benchmarks/flow/compare.py A B

A and B are run records written by ``run.py --out`` (``*-trace0.json``
files) or directories of them: A from the parent commit, B from the
change.  For each workload and end-to-end metric it prints each side's
median and quartiles over its runs, and the change of B's median
against A's as a share of A's median, signed so that positive is
worse.  A pair is ``unresolved`` when either side's quartile spread
exceeds the metric's bound.

It also compares ``FlowReport`` rows: a design run on both sides must
give identical rows, so WNS, TNS and violations are held exactly.

Exit status 1 when any median is worse than its bound, any row
differs, or any run was not correct; 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path: Path) -> list[dict]:
    """Untraced run records in *path* (a record file or a directory)."""
    files = sorted(path.glob("*-trace0.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text()) for f in files]
    return [r for r in records if r["trace"] == 0]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def rows_by_design(records: list[dict]) -> dict[tuple[str, int], dict]:
    return {(r["workload"], f["design"]): f["row"]
            for r in records for f in r["flows"]
            if f["design"] is not None and f["row"] is not None}


def compare(a: list[dict], b: list[dict], bounds: list[dict]) -> int:
    failures = 0
    for side, records in (("A", a), ("B", b)):
        for r in records:
            if not r["correct"]:
                print(f"{side}: {r['workload']} seed {r['seed']} "
                      f"had {r['failed']} failed flows")
                failures += 1
    workloads = sorted({r["workload"] for r in a}
                       & {r["workload"] for r in b})
    print(f"{'workload':<10} {'metric':<12} {'A median [q1, q3] n':>30} "
          f"{'B median [q1, q3] n':>30} {'worse':>8} {'bound':>6}")
    for workload in workloads:
        for metric in bounds:
            name, bound = metric["name"], metric["bound"]
            sides = []
            for records in (a, b):
                values = [r["metrics"][name]["value"] for r in records
                          if r["workload"] == workload]
                sides.append((*quartiles(values), len(values)))
            (a_q1, a_med, a_q3, a_n), (b_q1, b_med, b_q3, b_n) = sides
            worse = (b_med - a_med) / a_med
            if metric["better"] == "higher":
                worse = -worse
            verdict = ""
            if max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med) > bound:
                verdict = "unresolved"
            if worse > bound:
                verdict = f"{verdict} WORSE".strip()
                failures += 1
            print(f"{workload:<10} {name:<12} "
                  f"{a_med:>11.5g} [{a_q1:.4g}, {a_q3:.4g}] {a_n:>2} "
                  f"{b_med:>11.5g} [{b_q1:.4g}, {b_q3:.4g}] {b_n:>2} "
                  f"{worse:>+8.2%} {bound:>6.0%} {verdict}")
    rows_a, rows_b = rows_by_design(a), rows_by_design(b)
    shared = sorted(rows_a.keys() & rows_b.keys())
    changed = [key for key in shared if rows_a[key] != rows_b[key]]
    for workload, design in changed:
        print(f"{workload} design {design}: FlowReport row differs")
    print(f"rows: {len(shared) - len(changed)} of {len(shared)} shared "
          f"designs identical")
    return 1 if failures or changed else 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = (load(Path(arg)) for arg in args)
    if not a or not b:
        print("error: no untraced run records on one side", file=sys.stderr)
        return 2
    bounds = json.loads(BENCHMARK.read_text())["end_to_end"]
    return compare(a, b, bounds)


if __name__ == "__main__":
    sys.exit(main())
