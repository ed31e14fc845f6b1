"""Rewrite expected.json: every workload design's ``FlowReport.row()``.

The flow benchmark fails any flow whose row differs from the row
recorded here.  Re-record only in a change meant to alter flow results,
and say so in that change:

    python benchmarks/flow/record_expected.py
"""

from __future__ import annotations

import json
import sys

from run import EXPECTED, WORKLOADS, check, run_child

#: Generous: one m128-gnn flow takes about 15 s on a 2-vCPU host.
TIMEOUT_S = 600.0


def main() -> int:
    rows: dict[str, dict[str, dict]] = {}
    for workload in WORKLOADS.values():
        rows[workload.name] = {}
        for design in workload.designs:
            flow = run_child(workload, design, timeout=TIMEOUT_S)
            check([flow], {})
            if flow.error is not None:
                print(f"{workload.name} design {design}: {flow.error}",
                      file=sys.stderr)
                return 1
            rows[workload.name][str(design)] = flow.out["row"]
            print(f"{workload.name} design {design}: "
                  f"wns_ps {flow.out['row']['wns_ps']:.3f}")
    EXPECTED.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
