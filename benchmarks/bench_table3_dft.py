"""Table III — the two MLS DFT strategies on the small MAERI fabric.

Paper: wire-based (scan-FF) DFT has slightly more total faults than
net-based (MUX) DFT but detects more, at marginally worse WNS.  The
bench also exercises the Figure 3 motivation: without DFT, MLS opens
crater die-level test coverage.
"""

from repro.harness import table3_dft_comparison
from repro.harness.designs import get_benchmark
from repro.harness.tables import run_benchmark_flow
from repro.dft import die_test_fault_sim
from repro.rng import stream


def test_table3_dft_strategies(benchmark, emit):
    table = benchmark.pedantic(table3_dft_comparison,
                               rounds=1, iterations=1)
    lines = ["Table III — MLS DFT strategy comparison (maeri16_hetero)",
             "=" * 58,
             (f"{'strategy':<14}{'total faults':>14}{'detected':>12}"
              f"{'coverage %':>12}{'WNS (ps)':>10}")]
    for strategy in ("net-based", "wire-based"):
        row = table[strategy]
        lines.append(
            f"{strategy:<14}{row['total_faults']:>14.0f}"
            f"{row['detected_faults']:>12.0f}"
            f"{row['coverage_pct']:>11.2f}%{row['wns_ps']:>10.1f}")
    emit("table3_dft", "\n".join(lines))

    net, wire = table["net-based"], table["wire-based"]
    # Table III shape.
    assert wire["total_faults"] > net["total_faults"]
    assert wire["detected_faults"] > net["detected_faults"]
    assert wire["wns_ps"] <= net["wns_ps"] + 2.0


def test_fig3_opens_destroy_coverage(benchmark, emit):
    """Figure 3 motivation: MLS opens without DFT are untestable."""
    def run():
        report = run_benchmark_flow(get_benchmark("maeri16_hetero"),
                                    "gnn", with_scan=True,
                                    dft_strategy="wire-based")
        broken = die_test_fault_sim(report.design, stream("fig3", 1),
                                    patterns=128, with_dft=False)
        fixed = die_test_fault_sim(report.design, stream("fig3", 1),
                                   patterns=128, with_dft=True)
        return broken, fixed

    broken, fixed = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("fig3_testability",
         "Figure 3 — die-level test coverage with MLS opens\n"
         + "=" * 50 + "\n"
         f"without DFT: {broken.coverage_pct:6.2f}%\n"
         f"with DFT   : {fixed.coverage_pct:6.2f}%")
    assert fixed.coverage_pct > broken.coverage_pct + 5.0
