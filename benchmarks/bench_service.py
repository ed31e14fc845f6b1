"""Flow-as-a-service benchmark — warm-path economics + dedup gate.

Measures, per design, the three ways one flow request can be served:

* ``cold_s``         — full compute through the store-backed flow
  (empty store: generate, partition, place, buffer, route, signoff);
* ``warm_summary_s`` — the daemon fast path: a fresh store handle
  answers from the ``flow.summary`` artifact without unpickling the
  megabyte-scale report;
* ``warm_report_s``  — full bit-identical :class:`FlowReport` replay
  (decompress + unpickle), what ``--save-report`` clients pay.

A second section boots a real in-process daemon and performs the CI
dedup smoke: two *identical* concurrent submissions plus one distinct
one must cost exactly two flow computes — the duplicate is served from
the in-flight future or the finished artifact, never recomputed.

Writes ``BENCH_service.json`` at the repo root.

Gates (non-zero exit on failure):

* the warm summary path is >= ``WARM_SPEEDUP_GATE`` x faster than the
  cold run on every benchmarked design (the headline acceptance gate
  runs on MAERI-128; ``--smoke`` applies the same gate to the 16PE
  fabric, where the margin is even wider);
* warm replay is digest-identical to the cold run (cold/warm
  ``report_digest`` match, and the replayed report's row agrees);
* daemon dedup: 2 identical + 1 distinct request => exactly 2
  computes and >= 1 dedup/replay hit.

Run directly::

    PYTHONPATH=src:. python benchmarks/bench_service.py          # full
    PYTHONPATH=src:. python benchmarks/bench_service.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro.core.flow import FlowConfig                         # noqa: E402
from repro.harness.designs import (DEFAULT_EXPERIMENT_SEED,  # noqa: E402
                                    get_benchmark)
from repro.obs import metrics                                  # noqa: E402
from repro.service import ArtifactStore                        # noqa: E402
from repro.service.client import ServiceClient                 # noqa: E402
from repro.service.daemon import (ServiceConfig,               # noqa: E402
                                  start_in_thread)
from repro.service.stages import run_flow_stored               # noqa: E402

BENCH_JSON = REPO_ROOT / "BENCH_service.json"
TREND_JSONL = REPO_ROOT / "benchmarks" / "results" / "trend.jsonl"

#: Acceptance: warm (summary-served) requests at least this many times
#: faster than the cold compute.
WARM_SPEEDUP_GATE = 5.0

#: Repeats for the warm timings (best-of; cold runs once — it
#: dominates wall-clock and its variance is irrelevant to the gate).
WARM_REPEATS = 3


def bench_design(key: str, workdir: Path) -> dict:
    spec = get_benchmark(key)
    config = FlowConfig(selector="none",
                        target_freq_mhz=spec.target_freq_mhz)
    root = workdir / f"store-{key}"

    store = ArtifactStore(root)
    t0 = time.perf_counter()
    cold_report, cold_summary, cached = run_flow_stored(
        spec.factory, spec.tech(), DEFAULT_EXPERIMENT_SEED, config, store)
    cold_s = time.perf_counter() - t0
    assert not cached, "store was supposed to be empty"

    warm_summary_s = min(
        _timed(lambda: run_flow_stored(
            spec.factory, spec.tech(), DEFAULT_EXPERIMENT_SEED, config,
            ArtifactStore(root), need_report=False))
        for _ in range(WARM_REPEATS))
    warm_report_s = min(
        _timed(lambda: run_flow_stored(
            spec.factory, spec.tech(), DEFAULT_EXPERIMENT_SEED, config,
            ArtifactStore(root)))
        for _ in range(WARM_REPEATS))

    _none, warm_summary, warm_cached = run_flow_stored(
        spec.factory, spec.tech(), DEFAULT_EXPERIMENT_SEED, config,
        ArtifactStore(root), need_report=False)
    warm_report, _summary, _cached = run_flow_stored(
        spec.factory, spec.tech(), DEFAULT_EXPERIMENT_SEED, config,
        ArtifactStore(root))

    return {
        "design": spec.paper_name,
        "key": key,
        "instances": len(cold_report.design.netlist.instances),
        "nets": len(cold_report.design.netlist.nets),
        "store_bytes": ArtifactStore(root).total_bytes(),
        "cold_s": round(cold_s, 3),
        "warm_summary_s": round(warm_summary_s, 5),
        "warm_report_s": round(warm_report_s, 3),
        "warm_speedup_x": round(cold_s / warm_summary_s, 1),
        "report_replay_speedup_x": round(cold_s / warm_report_s, 1),
        "warm_cached": warm_cached,
        "digest_identical": (
            warm_summary["report_digest"]
            == cold_summary["report_digest"]
            and warm_report.row() == cold_report.row()),
    }


def bench_daemon_dedup(key: str, workdir: Path) -> dict:
    """The CI smoke: 2 identical + 1 distinct concurrent submissions
    through a real daemon => 2 computes, >= 1 dedup/replay hit."""
    sockdir = tempfile.mkdtemp(prefix="rsvc-bench-", dir="/tmp")
    config = ServiceConfig(socket_path=f"{sockdir}/s.sock",
                           store_root=str(workdir / f"daemon-{key}"))
    handle = start_in_thread(config)
    names = ("service.flow_computes", "service.dedup_hits",
             "service.flow_summary_hits", "service.flow_report_hits")
    base = {n: metrics.counter(n) for n in names}
    payloads = [dict(benchmark=key, selector="none", seed=1),
                dict(benchmark=key, selector="none", seed=1),
                dict(benchmark=key, selector="none", seed=2)]
    responses: list = [None] * len(payloads)
    barrier = threading.Barrier(len(payloads))

    def submit(idx, payload):
        client = ServiceClient(config.socket_path, timeout=1800.0)
        barrier.wait()
        responses[idx] = client.submit_flow(**payload)

    threads = [threading.Thread(target=submit, args=(i, p))
               for i, p in enumerate(payloads)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=1800)
    finally:
        handle.stop()
        shutil.rmtree(sockdir, ignore_errors=True)

    moved = {n: metrics.counter(n) - base[n] for n in names}
    replays = (moved["service.dedup_hits"]
               + moved["service.flow_summary_hits"]
               + moved["service.flow_report_hits"])
    return {
        "key": key,
        "submissions": len(payloads),
        "all_ok": all(r and r.get("ok") for r in responses),
        "identical_digests_agree": (
            responses[0] is not None and responses[1] is not None
            and responses[0].get("report_digest")
            == responses[1].get("report_digest")),
        "distinct_digest_differs": (
            responses[0] is not None and responses[2] is not None
            and responses[0].get("report_digest")
            != responses[2].get("report_digest")),
        "flow_computes": moved["service.flow_computes"],
        "dedup_or_replay_hits": replays,
    }


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _gates(rows: list[dict], dedup: dict) -> list[str]:
    failures = []
    for row in rows:
        name = row["key"]
        if not row["warm_cached"]:
            failures.append(f"{name}: warm run was not served from "
                            "the artifact store")
        if not row["digest_identical"]:
            failures.append(f"{name}: warm replay is not "
                            "digest-identical to the cold run")
        if row["warm_speedup_x"] < WARM_SPEEDUP_GATE:
            failures.append(
                f"{name}: warm path only {row['warm_speedup_x']:.1f}x "
                f"faster than cold (< {WARM_SPEEDUP_GATE:.0f}x gate)")
    if not dedup["all_ok"]:
        failures.append("daemon dedup smoke: a submission failed")
    if dedup["flow_computes"] != 2:
        failures.append(
            f"daemon dedup smoke: {dedup['flow_computes']} computes "
            f"for 2 identical + 1 distinct submissions (expected 2)")
    if dedup["dedup_or_replay_hits"] < 1:
        failures.append("daemon dedup smoke: the duplicate submission "
                        "was not deduped or replayed")
    if not dedup["identical_digests_agree"]:
        failures.append("daemon dedup smoke: identical submissions "
                        "returned different digests")
    if not dedup["distinct_digest_differs"]:
        failures.append("daemon dedup smoke: distinct submissions "
                        "returned the same digest")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: 16PE fabric only")
    args = parser.parse_args(argv)

    keys = ["maeri16_hetero"] if args.smoke \
        else ["maeri16_hetero", "maeri128_hetero"]
    workdir = Path(tempfile.mkdtemp(prefix="bench-service-"))

    try:
        rows = []
        for key in keys:
            print(f"benchmarking {key} ...", flush=True)
            row = bench_design(key, workdir)
            rows.append(row)
            for field, value in row.items():
                print(f"  {field:<24}{value}")

        dedup_key = keys[0]
        print(f"daemon dedup smoke on {dedup_key} ...", flush=True)
        dedup = bench_daemon_dedup(dedup_key, workdir)
        for field, value in dedup.items():
            print(f"  {field:<24}{value}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"smoke": args.smoke,
              "warm_speedup_gate_x": WARM_SPEEDUP_GATE,
              "warm_repeats": WARM_REPEATS,
              "designs": rows, "daemon_dedup": dedup}
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {BENCH_JSON}")

    from repro.obs.trend import append_trend
    legs = {f"service.{row['key']}.{leg}": row[leg]
            for row in rows
            for leg in ("cold_s", "warm_summary_s", "warm_report_s")}
    append_trend(TREND_JSONL, "service", legs, smoke=args.smoke,
                 meta={"warm_repeats": WARM_REPEATS})

    failures = _gates(rows, dedup)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
