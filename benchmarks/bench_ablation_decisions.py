"""Ablation — decision-policy ladder and DGI pretraining value.

Not a paper table, but the design-choice checks DESIGN.md calls out:

* policy ladder on hetero MAERI-16: random < SOTA <= GNN <= oracle on
  TNS (the GNN approximates the oracle it was trained on);
* DGI pretraining vs from-scratch fine-tuning (paper Section III-C
  argues pretraining extracts features from unlabeled paths).
"""

from repro import FlowConfig, run_flow
from repro.core.trainer import TrainConfig
from repro.harness.designs import DEFAULT_EXPERIMENT_SEED, get_benchmark
from repro.harness.tables import run_benchmark_flows


def test_ablation_policy_ladder(benchmark, emit):
    def run():
        reports = run_benchmark_flows(
            get_benchmark("maeri16_hetero"),
            ("random", "none", "sota", "gnn", "oracle"))
        return {sel: report.row() for sel, report in reports.items()}

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Ablation — decision policy ladder (maeri16_hetero)",
             "=" * 52,
             f"{'policy':<10}{'WNS (ps)':>12}{'TNS (ns)':>12}"
             f"{'#vio':>8}{'#MLS':>8}"]
    for sel in ("none", "random", "sota", "gnn", "oracle"):
        row = rows[sel]
        lines.append(f"{sel:<10}{row['wns_ps']:>12.1f}"
                     f"{row['tns_ns']:>12.2f}{row['vio_paths']:>8.0f}"
                     f"{row['mls_nets']:>8.0f}")
    emit("ablation_policies", "\n".join(lines))

    # The ladder: the oracle is the upper bound; the GNN approaches it
    # and beats blind policies.
    assert rows["oracle"]["tns_ns"] >= rows["gnn"]["tns_ns"] - 0.05
    assert rows["gnn"]["tns_ns"] >= rows["random"]["tns_ns"] - 0.05
    assert rows["oracle"]["tns_ns"] >= rows["none"]["tns_ns"]


def test_ablation_dgi_pretraining(benchmark, emit):
    def run():
        spec = get_benchmark("maeri16_hetero")
        out = {}
        for tag, use_dgi in (("with_dgi", True), ("no_dgi", False)):
            config = FlowConfig(
                selector="gnn",
                target_freq_mhz=spec.target_freq_mhz,
                num_paths=spec.num_paths,
                num_labeled=spec.num_labeled,
                activity=spec.activity,
                pdn=False,
                train=TrainConfig(use_dgi=use_dgi),
            )
            out[tag] = run_flow(spec.factory, spec.tech(),
                                DEFAULT_EXPERIMENT_SEED, config).row()
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("ablation_dgi",
         "Ablation — DGI pretraining (maeri16_hetero)\n" + "=" * 48 + "\n"
         + "\n".join(
             f"{tag:<10} WNS {row['wns_ps']:8.1f} ps  "
             f"TNS {row['tns_ns']:8.2f} ns  #MLS {row['mls_nets']:5.0f}"
             for tag, row in rows.items()))

    # Both variants must produce a working decision policy; DGI should
    # not be catastrophically worse (it usually helps on small label
    # budgets).
    for row in rows.values():
        assert row["mls_nets"] > 0
