"""The flow's garbage-collector pause.

``run_benchmark_flow`` holds :func:`repro.core.flow.collector_paused`.
No automatic collection may run inside that call, and a
``gc.collect()`` after it must free nothing: a running flow leaves no
unreachable cycles, because all it builds is still reachable from the
memoized report.  (The design is cyclic, so a report dropped later is
garbage for the collector.)  The pause itself is process state, so it
must nest and must survive threads racing through it.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest

import repro.core.flow as flow_mod
from repro.core.flow import collector_paused
from repro.errors import FlowError
from repro.harness.designs import get_benchmark
from repro.harness.tables import clear_flow_cache, run_benchmark_flow

#: (selector, with_scan, dft_strategy) on MAERI-16.
FLOWS = [
    ("none", False, None),
    ("sota", False, None),
    ("oracle", False, None),
    ("random", False, None),
    ("gnn", False, None),
    ("gnn", True, "wire-based"),
]


@pytest.fixture
def collector_state():
    """Put the collector back the way the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.fixture
def collected(collector_state):
    """Objects freed by each collector pass, in order."""
    log: list[int] = []

    def hook(phase, info):
        if phase == "stop":
            log.append(info["collected"])

    gc.enable()
    gc.callbacks.append(hook)
    clear_flow_cache()
    try:
        yield log
    finally:
        gc.callbacks.remove(hook)
        clear_flow_cache()


@pytest.mark.parametrize(
    "selector,with_scan,dft_strategy", FLOWS,
    ids=[f"{sel}{'-' + dft if dft else ''}" for sel, _, dft in FLOWS])
def test_flow_runs_no_collection_and_leaves_no_garbage(
        collected, selector, with_scan, dft_strategy):
    spec = get_benchmark("maeri16_hetero")
    gc.collect()                  # every generation count starts at 0
    start = len(collected)
    run_benchmark_flow(spec, selector, with_scan=with_scan,
                       dft_strategy=dft_strategy)
    passes = len(collected) - start
    assert passes == 0
    assert gc.isenabled()
    assert gc.collect() == 0
    assert sum(collected[start:]) == 0      # nor did any pass before it


def test_failing_flow_restores_collector(monkeypatch, collector_state):
    def fail(*args, **kwargs):
        raise FlowError("power estimate failed")

    monkeypatch.setattr(flow_mod, "estimate_power", fail)
    gc.enable()
    clear_flow_cache()
    with pytest.raises(FlowError, match="power estimate failed"):
        run_benchmark_flow(get_benchmark("maeri16_hetero"), "none")
    assert gc.isenabled()


def test_caller_disabled_collector_stays_disabled(collector_state):
    gc.disable()
    clear_flow_cache()
    run_benchmark_flow(get_benchmark("maeri16_hetero"), "none")
    assert not gc.isenabled()
    clear_flow_cache()


def test_pause_is_reentrant_and_thread_safe(collector_state):
    threads_n, rounds = 8, 500
    gc.enable()
    failures: list[str] = []

    def worker(tid: int) -> None:
        for i in range(rounds):
            with collector_paused():
                if gc.isenabled():
                    failures.append(f"thread {tid} round {i}: outer")
                with collector_paused():
                    if gc.isenabled():
                        failures.append(f"thread {tid} round {i}: inner")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(tid,))
                   for tid in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert gc.isenabled()
