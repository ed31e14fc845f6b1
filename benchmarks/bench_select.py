"""GNN selector-leg benchmark — padded batches vs per-graph reference.

Times the select leg (DGI pretraining, fine-tuning, inference) of the
GNN-MLS selector two ways on the routed no-MLS fabrics and writes
``BENCH_select.json`` at the repo root:

* ``batched``             — the production padded (B, L, D) path: one
  forward/backward and optimizer step per length-bucketed minibatch,
  each encoder forward one fused autograd node (``repro.nn.fused``;
  DGI stacks its clean and corrupted batches into one pass);
* ``per_graph_reference`` — the same minibatch schedule computed with
  per-graph op-by-op forwards and gradient accumulation: the oracle
  in ``tests/select_oracle.py``, installed by its
  ``per_graph_reference()`` context manager.

Both legs share one dataset (and its cached normalized features) and
the same seeds, so they see identical minibatches and must select the
**identical net set** — the script exits non-zero on any selection
divergence, or when the fine-tune throughput speedup falls below the
gate (3x full, 2x smoke).  This is what the ``select-smoke`` CI job
runs.

Run directly::

    PYTHONPATH=src python benchmarks/bench_select.py          # 16 + 128 PE
    PYTHONPATH=src python benchmarks/bench_select.py --smoke  # 16PE, CI
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))      # the oracle lives in tests/

from repro.core import (TrainConfig, build_dataset,             # noqa: E402
                        decide_mls_nets, train_gnn_mls)
from repro.core.flow import FlowConfig, prepare_design          # noqa: E402
from repro.harness.designs import (DEFAULT_EXPERIMENT_SEED,  # noqa: E402
                                    get_benchmark)
from repro.mls import route_with_mls                            # noqa: E402
from repro.timing import run_sta                                # noqa: E402
from tests.select_oracle import per_graph_reference             # noqa: E402

BENCH_JSON = REPO_ROOT / "BENCH_select.json"
TREND_JSONL = REPO_ROOT / "benchmarks" / "results" / "trend.jsonl"

#: (num_paths, num_labeled, dgi_epochs, finetune_epochs) per mode —
#: small enough to time in CI, large enough that throughput is kernel-
#: bound rather than overhead-bound.
SMOKE_SHAPE = (120, 40, 1, 3)
FULL_SHAPE = (400, 150, 2, 6)


def _time(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def bench_design(key: str, batch_size: int,
                 shape: tuple[int, int, int, int]) -> dict:
    num_paths, num_labeled, dgi_epochs, ft_epochs = shape
    spec = get_benchmark(key)
    config = FlowConfig(selector="gnn",
                        target_freq_mhz=spec.target_freq_mhz)
    design = prepare_design(spec.factory, spec.tech(), DEFAULT_EXPERIMENT_SEED,
                            config)
    router, routing = route_with_mls(design, set())
    report = run_sta(design)
    dataset_s, dataset = _time(lambda: build_dataset(
        design, router, routing, report,
        num_paths=num_paths, num_labeled=num_labeled))
    dataset.normalized()        # shared precompute, outside the timers

    row = {
        "design": spec.paper_name,
        "key": key,
        "graphs": len(dataset.graphs),
        "labeled": len(dataset.labeled_graphs),
        "batch_size": batch_size,
        "dgi_epochs": dgi_epochs,
        "finetune_epochs": ft_epochs,
        "dataset_s": round(dataset_s, 3),
    }
    cfg = TrainConfig(dgi_epochs=dgi_epochs, finetune_epochs=ft_epochs,
                      batch_size=batch_size)
    selections = {}
    for leg, math in (("batched", contextlib.nullcontext),
                      ("per_graph_reference", per_graph_reference)):
        with math():
            # Fine-tune leg in isolation (the acceptance gate's metric).
            ft_s, _ = _time(lambda: train_gnn_mls(
                dataset, DEFAULT_EXPERIMENT_SEED,
                dataclasses.replace(cfg, use_dgi=False)))
            # Whole select leg: DGI + fine-tune + inference.
            select_s, model = _time(
                lambda: train_gnn_mls(dataset, DEFAULT_EXPERIMENT_SEED, cfg))
            infer_s, nets = _time(lambda: decide_mls_nets(model))
        selections[leg] = nets
        visits = ft_epochs * len(dataset.labeled_graphs)
        row[leg] = {
            "finetune_s": round(ft_s, 3),
            "finetune_epoch_s": round(ft_s / ft_epochs, 4),
            "finetune_graphs_per_s": round(visits / ft_s, 1),
            "select_s": round(select_s + infer_s, 3),
            "infer_s": round(infer_s, 4),
            "nets_selected": len(nets),
        }
    ref, bat = row["per_graph_reference"], row["batched"]
    row["speedup_finetune"] = round(
        ref["finetune_s"] / bat["finetune_s"], 2)
    row["speedup_select"] = round(ref["select_s"] / bat["select_s"], 2)
    row["selection_identical"] = \
        selections["batched"] == selections["per_graph_reference"]
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="16PE only, reduced epochs, 2x gate (CI)")
    parser.add_argument("--batch", type=int, default=16,
                        help="padded minibatch size (default 16)")
    args = parser.parse_args(argv)

    keys = ["maeri16_hetero"] if args.smoke \
        else ["maeri16_hetero", "maeri128_hetero"]
    shape = SMOKE_SHAPE if args.smoke else FULL_SHAPE
    min_speedup = 2.0 if args.smoke else 3.0

    rows = []
    for key in keys:
        print(f"benchmarking {key} ...", flush=True)
        row = bench_design(key, args.batch, shape)
        rows.append(row)
        for field, value in row.items():
            print(f"  {field:<28}{value}")

    from repro.obs import metrics
    record = {"smoke": args.smoke, "batch": args.batch,
              "min_speedup": min_speedup, "designs": rows,
              "metrics": metrics.snapshot()}
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {BENCH_JSON}")

    from repro.obs.trend import append_trend
    legs = {}
    for row in rows:
        legs[f"select.{row['key']}.finetune_s"] = \
            row["batched"]["finetune_s"]
        legs[f"select.{row['key']}.select_s"] = \
            row["batched"]["select_s"]
        legs[f"select.{row['key']}.dataset_s"] = row["dataset_s"]
    append_trend(TREND_JSONL, "select", legs, smoke=args.smoke,
                 meta={"batch": args.batch})

    ok = True
    for row in rows:
        if not row["selection_identical"]:
            print(f"FAIL: {row['design']}: batched and per-graph "
                  "reference selected different net sets",
                  file=sys.stderr)
            ok = False
        if row["speedup_finetune"] < min_speedup:
            print(f"FAIL: {row['design']}: fine-tune speedup "
                  f"{row['speedup_finetune']}x below the "
                  f"{min_speedup}x gate", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
