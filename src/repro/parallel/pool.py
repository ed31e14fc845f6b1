"""Chunked process-pool map over a shared pickled snapshot.

The pattern every wired hot loop uses:

1. the caller pickles one *snapshot* of the heavy shared state (the
   design, router, routing result, scan view...) with
   :func:`dumps_snapshot`;
2. each worker process unpickles it exactly once, at pool startup;
3. tasks are lightweight chunks of items (net names, fault indices);
   the worker function receives ``(state, chunk)`` and returns one
   result per item;
4. chunk results are concatenated in submission order, so the merged
   output is independent of worker scheduling.

Worker functions must be module-level (picklable by reference) and
deterministic given the snapshot.  If the pool cannot be created at
all (sandboxed /dev/shm, fork bans...), the map silently degrades to
an in-process serial run over the *original* snapshot object — the
results are identical by the determinism contract.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import sys
import time
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.obs import metrics, trace
from repro.obs.recorder import flight, maybe_arm_from_env
from repro.parallel.config import ParallelConfig

T = TypeVar("T")

#: Netlists serialize flat (struct-of-arrays ``__getstate__`` — see
#: :mod:`repro.netlist.soa`), so snapshot depth no longer scales with
#: design size and the default interpreter limit usually suffices.
#: One modest escalation step remains for arbitrary user payloads
#: (nested route trees, ad-hoc test objects).  The old top step of
#: 1,000,000 is gone deliberately: raising the Python limit that far
#: overran the C stack and turned a clean RecursionError into a
#: segfault on 128PE-class designs.
_RECURSION_LIMITS = (50_000,)

#: Per-process snapshot installed by the pool initializer.
_WORKER_STATE: Any = None

#: Fork fast-path: the parent parks the snapshot here just before the
#: pool forks, so children inherit it copy-on-write and skip the
#: pickle/unpickle round-trip entirely.  Spawn/forkserver contexts
#: cannot inherit and use the pickled payload instead.
_FORK_SNAPSHOT: Any = None


def chunked(items: Sequence[T], size: int) -> list[list[T]]:
    """Split *items* into consecutive chunks of at most *size*."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    seq = list(items)
    return [seq[i:i + size] for i in range(0, len(seq), size)]


def _with_raised_recursion(fn: Callable[[], T]) -> T:
    old = sys.getrecursionlimit()
    try:
        for limit in _RECURSION_LIMITS:
            sys.setrecursionlimit(max(old, limit))
            try:
                return fn()
            except RecursionError:
                if limit == _RECURSION_LIMITS[-1]:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover
    finally:
        sys.setrecursionlimit(old)


def dumps_snapshot(obj: Any) -> bytes:
    """Pickle *obj* with headroom for moderately nested payloads."""
    return _with_raised_recursion(
        lambda: pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def loads_snapshot(payload: bytes) -> Any:
    """Inverse of :func:`dumps_snapshot`."""
    return _with_raised_recursion(lambda: pickle.loads(payload))


def _init_worker(payload: bytes) -> None:
    global _WORKER_STATE
    _WORKER_STATE = loads_snapshot(payload)
    maybe_arm_from_env()


def _init_fork_worker() -> None:
    global _WORKER_STATE
    _WORKER_STATE = _FORK_SNAPSHOT
    # Forked children inherit an already-armed recorder and this is a
    # no-op; spawn/forkserver children start fresh and arm here.
    maybe_arm_from_env()


def _run_chunk(fn: Callable[[Any, list], list], chunk: list,
               trace_parent: str | None = None):
    """Worker-side chunk runner.

    *trace_parent* is the parent's active-span token
    (:meth:`repro.obs.tracer.Tracer.export_parent`): ``None`` means
    tracing is off and the bare result list is returned; otherwise the
    chunk runs under a worker-local span collection and ``(results,
    span records)`` travels back for the parent to merge.
    """
    try:
        if trace_parent is None:
            return fn(_WORKER_STATE, chunk)
        with trace.collect_worker(trace_parent) as records:
            with trace.span("pool.chunk", items=len(chunk)):
                out = fn(_WORKER_STATE, chunk)
        return out, records
    except Exception as exc:
        # Per-process forensics before the exception pickles back to
        # the parent (no-op unless a flight recorder is armed).
        flight.crash_dump("pool.chunk", exc)
        raise


def _serial_run(fn: Callable[[Any, list], list], state: Any,
                chunks: list[list]) -> list:
    out: list = []
    for chunk in chunks:
        with trace.span("pool.chunk", items=len(chunk), serial=True):
            out.extend(fn(state, chunk))
    return out


def _drain_futures(futures: list, traced: bool, t_dispatch: float) -> list:
    """Collect chunk results in submission order, merging worker span
    payloads and recording dispatch->drain latency per task."""
    out: list = []
    for future in futures:
        result = future.result()
        metrics.add_time("pool.task_latency_s",
                         time.perf_counter() - t_dispatch)
        if traced:
            result, records = result
            trace.merge(records)
        out.extend(result)
    return out


def snapshot_map(fn: Callable[[Any, list], list], items: Iterable,
                 snapshot: Any, config: ParallelConfig) -> list:
    """Map ``fn(state, chunk) -> [result per item]`` over *items*.

    Results are returned one-per-item in input order regardless of
    worker count.  ``state`` is *snapshot* itself in the serial path
    and an unpickled copy inside each worker otherwise, so ``fn`` may
    freely perform restore-style mutations (e.g. congestion-grid
    probes) without corrupting the caller's objects.
    """
    work = list(items)
    if not work:
        return []
    chunks = chunked(work, config.resolve_chunk_size(len(work)))
    metrics.inc("pool.maps")
    metrics.inc("pool.items", len(work))
    metrics.inc("pool.tasks", len(chunks))
    if not config.should_parallelize(len(work)):
        metrics.inc("pool.serial_tasks", len(chunks))
        return _serial_run(fn, snapshot, chunks)
    ctx = mp.get_context(config.start_method)   # bad method -> ValueError
    global _FORK_SNAPSHOT
    forked = ctx.get_start_method() == "fork"
    if forked:
        init, initargs = _init_fork_worker, ()
    else:
        init, initargs = _init_worker, (dumps_snapshot(snapshot),)
    try:
        if forked:
            _FORK_SNAPSHOT = snapshot
        with ProcessPoolExecutor(max_workers=config.workers,
                                 mp_context=ctx,
                                 initializer=init,
                                 initargs=initargs) as pool:
            metrics.inc("pool.pools_started")
            metrics.set_gauge("pool.workers", config.workers)
            tparent = trace.export_parent()
            t_dispatch = time.perf_counter()
            futures = [pool.submit(_run_chunk, fn, chunk, tparent)
                       for chunk in chunks]
            return _drain_futures(futures, tparent is not None,
                                  t_dispatch)
    except (BrokenExecutor, OSError) as exc:
        # Pool-level failure (sandbox, resource limits, dead workers):
        # degrade to serial.  Exceptions raised *inside* fn are not of
        # these types and propagate to the caller.
        metrics.inc("pool.degrade_events")
        warnings.warn(f"process pool unavailable ({exc!r}); "
                      f"running {len(work)} items serially",
                      RuntimeWarning, stacklevel=2)
        return _serial_run(fn, snapshot, chunks)
    finally:
        _FORK_SNAPSHOT = None
