"""Process-pool execution engine for the flow's hot loops.

The paper calls exhaustive per-net what-if STA "computationally
prohibitive"; our reproduction makes one probe cheap, but the flow
still runs thousands of them — plus the die-test fault simulation and
the dataset build — strictly serially.  This package fans those loops
out over worker processes against a *shared pickled snapshot* of the
design state:

* :class:`~repro.parallel.config.ParallelConfig` — the knobs
  (``workers``, ``chunk_size``, ``min_items`` serial-fallback
  threshold, ``start_method``);
* :func:`~repro.parallel.pool.snapshot_map` — chunked, order-
  preserving map of a module-level worker function over items, with
  the snapshot pickled once and shipped to each worker at startup;
* :func:`~repro.parallel.pool.dumps_snapshot` /
  :func:`~repro.parallel.pool.loads_snapshot` — deep-object pickling
  that survives the netlist's recursive pin<->net<->instance graph.

Equivalence contract: worker functions must be deterministic and must
not leak state mutations (probe-style restore is fine) so that any
``workers`` setting — including the serial fallback — produces results
bit-identical to the plain loop.  ``tests/test_parallel.py`` locks
this for every wired call site.

Global routing is not one of those loops: its serial long-nets-first
order is the router's contract (every net reads the congestion the
nets before it left), so it always runs in-process.
"""

from repro.parallel.config import ParallelConfig, usable_cores
from repro.parallel.pool import (chunked, dumps_snapshot, loads_snapshot,
                                 snapshot_map)

__all__ = [
    "ParallelConfig",
    "chunked",
    "dumps_snapshot",
    "loads_snapshot",
    "snapshot_map",
    "usable_cores",
]
