"""Knobs for the process-pool engine."""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.obs import get_logger, metrics

logger = get_logger("repro.parallel")

#: Set once the single-core degradation notice has been emitted, so a
#: sweep with thousands of should_parallelize calls logs it one time.
_DEGRADE_LOGGED = False


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def usable_cores() -> int:
    """Cores this process may actually run on (affinity-aware).

    Benchmarks use this to gate speedup assertions — a 1-core
    container cannot beat its own serial loop, and the honest record
    should show that rather than a faked number.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class ParallelConfig:
    """How (and whether) to fan a hot loop out over worker processes.

    ``workers=1`` (the default) disables the pool entirely: callers
    run their original serial loop, bit-identical to pre-parallel
    behavior.  Small workloads also stay serial — below ``min_items``
    the pool's spawn + snapshot cost cannot amortize.

    ``chunk_size=None`` auto-sizes chunks so each worker sees a few
    waves of work (load balancing without per-item dispatch overhead).
    """

    workers: int = 1
    chunk_size: int | None = None
    #: Serial fallback: workloads smaller than this never fan out.
    min_items: int = 64
    #: multiprocessing start method; None = platform default (fork on
    #: Linux, which makes snapshot shipping nearly free).
    start_method: str | None = None
    #: Target number of chunks per worker when auto-sizing.
    waves: int = 4

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.min_items < 0:
            raise ValueError(f"min_items must be >= 0, got {self.min_items}")
        if self.waves < 1:
            raise ValueError(f"waves must be >= 1, got {self.waves}")

    @property
    def enabled(self) -> bool:
        return self.workers > 1

    def should_parallelize(self, n_items: int) -> bool:
        """True when *n_items* is worth shipping to a pool.

        On a single-core host (affinity-aware) a multi-worker config
        degrades to the serial loop: extra processes would only time-
        slice one CPU while paying spawn + snapshot costs.  The
        degradation is logged once per process so sweeps stay quiet.
        """
        if not (self.enabled and n_items >= max(self.min_items, 2)):
            return False
        if usable_cores() <= 1:
            global _DEGRADE_LOGGED
            metrics.inc("pool.single_core_degrades")
            if not _DEGRADE_LOGGED:
                _DEGRADE_LOGGED = True
                logger.warning(
                    "ParallelConfig(workers=%d) on a single-core host: "
                    "falling back to the serial loop (results are "
                    "bit-identical either way)", self.workers)
            return False
        return True

    def resolve_chunk_size(self, n_items: int) -> int:
        """Explicit chunk size, or ~``waves`` chunks per worker."""
        if self.chunk_size is not None:
            return self.chunk_size
        if n_items <= 0:
            return 1
        return max(1, _ceil_div(n_items, self.workers * self.waves))

    @classmethod
    def auto(cls, **overrides) -> "ParallelConfig":
        """All available cores (``min 1``), other knobs default."""
        workers = overrides.pop("workers", None)
        if workers is None:
            workers = usable_cores()
        return cls(workers=max(1, workers), **overrides)
