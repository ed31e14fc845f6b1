#!/usr/bin/env python3
"""Training deep-dive — run Algorithm 1 by hand and inspect the model.

Shows the pieces the one-call flow hides: path extraction, hypergraph
conversion, DGI pretraining curves, fine-tuning, per-net probabilities
vs the exact oracle, and checkpointing the trained model.

Run:  python examples/train_and_inspect_gnn.py
"""

import numpy as np

from repro import FlowConfig, TechSetup
from repro.core import (TrainConfig, build_dataset, decide_mls_nets,
                        train_gnn_mls)
from repro.core.flow import prepare_design
from repro.mls import route_with_mls
from repro.netlist.generators import MaeriConfig, generate_maeri
from repro.nn import save_params
from repro.timing import run_sta


def main() -> None:
    tech = TechSetup.build("16nm", "28nm", 6)
    seed = 3
    config = FlowConfig(selector="gnn", target_freq_mhz=1900)

    print("== Build + place + route the baseline ==")
    design = prepare_design(
        lambda libs, s: generate_maeri(MaeriConfig(pe_count=16,
                                                   bandwidth=8), libs, s),
        tech, seed, config)
    router, routing = route_with_mls(design, set())
    report = run_sta(design)
    print(f"  baseline WNS {report.wns_ps:.1f} ps, "
          f"{report.num_violating} violating endpoints")

    print("== Extract paths, label with the what-if oracle ==")
    dataset = build_dataset(design, router, routing, report,
                            num_paths=300, num_labeled=150)
    print(f"  {len(dataset.graphs)} paths, "
          f"{len(dataset.labeled_graphs)} labeled, "
          f"positive label fraction {dataset.label_balance():.2f}")

    print("== Algorithm 1: DGI pretrain + MLP fine-tune ==")
    model = train_gnn_mls(dataset, seed,
                          TrainConfig(dgi_epochs=3, finetune_epochs=10),
                          log=lambda msg: print("  " + msg))

    print("== Inspect: model probability vs oracle label ==")
    probs = model.net_probabilities(dataset.labeled_graphs)
    pos = [probs[n] for n, lab in dataset.net_labels.items()
           if lab.helps and n in probs]
    neg = [probs[n] for n, lab in dataset.net_labels.items()
           if not lab.helps and n in probs]
    print(f"  mean p(MLS) on oracle-positive nets: {np.mean(pos):.2f}")
    print(f"  mean p(MLS) on oracle-negative nets: {np.mean(neg):.2f}")

    print("== Decide + targeted routing ==")
    selected = decide_mls_nets(model)
    router, routing = route_with_mls(design, selected)
    after = run_sta(design)
    print(f"  GNN-MLS WNS {after.wns_ps:.1f} ps "
          f"({len(routing.mls_applied_nets())} nets shared)")

    save_params(model.encoder, "/tmp/gnn_mls_encoder.npz")
    save_params(model.head, "/tmp/gnn_mls_head.npz")
    print("== Checkpoints written to /tmp/gnn_mls_{encoder,head}.npz ==")


if __name__ == "__main__":
    main()
