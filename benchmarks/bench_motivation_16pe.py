"""Section II-A motivation — selective MLS on the 16PE fabric.

Paper: "in the MAERI architecture with 16PE, MLS improves critical
path slack from -76 ps without MLS to -18 ps with selective MLS."
The bench runs the exact-oracle selective policy and asserts a
substantial WNS recovery.
"""

from repro.harness.designs import get_benchmark
from repro.harness.tables import run_benchmark_flows


def test_motivation_selective_mls(benchmark, emit):
    def run():
        reports = run_benchmark_flows(get_benchmark("maeri16_hetero"),
                                      ("none", "oracle"))
        return reports["none"].row(), reports["oracle"].row()

    none, oracle = benchmark.pedantic(run, rounds=1, iterations=1)
    recovered = 0.0
    if none["wns_ps"] < 0:
        recovered = 100.0 * (1.0 - oracle["wns_ps"] / none["wns_ps"])
    emit("motivation_16pe",
         "Section II-A — selective MLS on MAERI-16PE\n"
         + "=" * 48 + "\n"
         f"critical-path slack without MLS : {none['wns_ps']:8.1f} ps\n"
         f"critical-path slack selective   : {oracle['wns_ps']:8.1f} ps\n"
         f"WNS recovered                   : {recovered:8.1f} %\n"
         f"MLS nets applied                : {oracle['mls_nets']:8.0f}")

    assert oracle["wns_ps"] > none["wns_ps"]
    assert oracle["tns_ns"] >= none["tns_ns"]
