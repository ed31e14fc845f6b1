"""Tests for the flow benchmark: ``python -m pytest benchmarks/flow -q``.

They run a tiny workload (MAERI-16, selector none, one design) through
the real child process path.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
from repro.obs.analyze import aggregate, read_spans  # noqa: E402

TINY = run.Workload("tiny", "maeri16_hetero", "none", (20250706,))


def declared(section: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in spec[section]]


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("flowbench")


@pytest.fixture(scope="module")
def untraced(out_dir) -> dict:
    assert run.measure(TINY, 1, 1.0, False, {}, out_dir) == 0
    return json.loads((out_dir / "tiny-seed1-trace0.json").read_text())


@pytest.fixture(scope="module")
def traced(out_dir) -> dict:
    spans = out_dir / "tiny-seed1.spans.jsonl"
    assert run.measure(TINY, 1, 1.0, True, {}, out_dir, spans) == 0
    return json.loads((out_dir / "tiny-seed1-trace1.json").read_text())


def test_end_to_end_metrics_are_the_declared_ones(untraced):
    assert list(untraced["metrics"]) == declared("end_to_end")
    assert untraced["correct"] and untraced["attempted"] == 1
    setups = [f for f in untraced["flows"] if f["setup_s"] is not None]
    assert len(setups) >= run.MIN_SETUPS


def test_per_layer_metrics_are_the_declared_ones(traced):
    assert list(traced["metrics"]) == declared("per_layer")
    assert traced["metrics"]["route.route_all_calls"]["value"] == 2
    assert traced["metrics"]["route.unchanged_ratio"]["value"] == 1.0
    assert all(traced["metrics"][f"{layer}.self_s"]["value"] > 0
               for layer in run.LAYERS)


def test_traced_row_equals_untraced_row(traced):
    flows = traced["flows"]
    assert [f["traced"] for f in flows][-1] is True
    assert not any(f["traced"] for f in flows[:-1])
    assert all(f["row"] == flows[0]["row"] for f in flows)


def _bindings() -> dict[tuple[int, str], object]:
    out = {}
    for paths in child.FUNCTIONS.values():
        for dotted in paths:
            fn = child._resolve(dotted)
            for owner, attr in child._bindings(fn):
                out[(id(owner), attr)] = (owner, fn)
    for _, cls, attr in child.METHODS:
        out[(id(cls), attr)] = (cls, vars(cls)[attr])
    return out


def test_tracing_restores_every_wrapped_attribute():
    before = _bindings()
    payload = child.run_one("maeri16_hetero", "none", 20250706, traced=True)
    assert {"route.route_all", "place.place_design", "netlist.generate",
            "timing.incremental_init", "flow.run_flow"} <= set(
                payload["self_s"])
    for (_, attr), (owner, fn) in before.items():
        assert getattr(owner, attr) is fn, attr
    with pytest.raises(RuntimeError):
        with child.instrument(child.SpanRecorder("x"),
                              child.RouteComparison()):
            raise RuntimeError("flow failed")
    for (_, attr), (owner, fn) in before.items():
        assert getattr(owner, attr) is fn, attr


def test_spans_load_and_pass_the_schema(traced, out_dir):
    spans = out_dir / traced["spans"]
    records = read_spans(spans)
    assert {r["attrs"]["flow"] for r in records} == \
        {"maeri16_hetero/none/20250706"}
    roots = [path for path in aggregate(records).paths if "/" not in path]
    assert roots == [child.ROOT_SPAN]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "repro.obs.schema",
                           str(spans)], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def test_seed_reaches_the_generators():
    rows = [run.run_child(TINY, seed, timeout=120).out["row"]
            for seed in (7, 20250706)]
    assert rows[0]["wns_ps"] != rows[1]["wns_ps"]


def test_expected_rows_cover_every_workload_design():
    expected = json.loads(run.EXPECTED.read_text())
    assert set(expected) == set(run.WORKLOADS) == set(declared("workloads"))
    for workload in run.WORKLOADS.values():
        assert set(expected[workload.name]) == \
            {str(design) for design in workload.designs}


def test_check_fails_wrong_rows():
    row = {"wns_ps": -1.0, "vio_paths": 1}

    def flow(design, row, subset=True):
        return run.Flow(design, False, 1.0, 0.5,
                        {"row": row, "applied_subset": subset})

    flows = [flow(1, row), flow(1, {**row, "vio_paths": 2}),
             flow(2, row), flow(3, row, subset=False),
             run.Flow(None, False, 1.0, 0.5, {"ready": 0.0})]
    run.check(flows, {"2": {**row, "wns_ps": -2.0}})
    assert [f.error is not None for f in flows] == \
        [False, True, True, True, False]


def test_compare_flags_regressions_and_changed_rows(untraced):
    bounds = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert compare.compare([untraced], [untraced], bounds) == 0
    slower = json.loads(json.dumps(untraced))
    slower["metrics"]["flow_s"]["value"] *= 2
    assert compare.compare([untraced], [slower], bounds) == 1
    changed = json.loads(json.dumps(untraced))
    changed["flows"][0]["row"]["wns_ps"] += 1.0
    assert compare.compare([untraced], [changed], bounds) == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "flow",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/flow/run.py", "--workload", "m16-gnn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
