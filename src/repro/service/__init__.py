"""Flow-as-a-service: content-addressed artifacts + an async daemon.

A prepared design shared across one call's selectors
(:func:`repro.harness.tables.run_benchmark_flows`) dies with that
call; this package makes preparation (and whole flow runs) durable and
shareable across calls and processes.  The store keeps what a later
request reads back: the placement, the buffered design, the flow
report and its summary.  A call given a store uses only the store,
never the in-process report memo.

* :mod:`repro.service.keys`   — canonical content-hash keys over the
  package source, the factory, tech, seed and config: the store's one
  definition of "same run";
* :mod:`repro.service.store`  — the on-disk artifact store (atomic
  writes, checksummed blobs, an LRU size budget kept by file mtimes;
  the object tree is its only index);
* :mod:`repro.service.stages` — store-backed prepare/flow execution,
  provably bit-identical to the cold path;
* :mod:`repro.service.daemon` — the asyncio unix-socket job server
  (each request resolved once, then dedup, a FIFO queue and one flow
  thread, per-request obs traces);
* :mod:`repro.service.client` — the blocking client the CLI verbs use.

``daemon``/``client``/``stages`` import flow machinery and are loaded
lazily by the CLI; importing this package pulls only the light key and
store layers.
"""

from repro.service.keys import (ContentKey, PrepareKeys, canonical,
                                factory_token, flow_key,
                                flow_summary_key, prepare_stage_keys,
                                tech_digest)
from repro.service.store import (ArtifactCorruptError, ArtifactStore,
                                 read_artifact)

__all__ = [
    "ArtifactCorruptError",
    "ArtifactStore",
    "ContentKey",
    "PrepareKeys",
    "canonical",
    "factory_token",
    "flow_key",
    "flow_summary_key",
    "prepare_stage_keys",
    "read_artifact",
    "tech_digest",
]
