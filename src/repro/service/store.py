"""On-disk content-addressed artifact store.

Layout under one root directory::

    <root>/objects/<aa>/<kind>-<sha256>.bin    artifact blobs
    <root>/tmp/                                staging for atomic writes

Each blob is a small header — magic, SHA-256 of the compressed
payload, payload length — followed by the zlib-compressed
:func:`repro.snapshot.dumps_snapshot` pickle (the flat struct-of-arrays
format from the netlist core, so prepared MAERI-128 designs are ~1 MB).
Writes stage into ``tmp/`` and land via ``os.replace``; a crash at any
point leaves either no file or the complete old one, never a partial
artifact.  Reads verify the checksum and length: any corruption or
truncation is *detected, counted and treated as a miss* — the damaged
file is unlinked, never served.  A payload that passes its checksum
but no longer unpickles (its pickle names a class this code no longer
has) is a miss the same way, so the caller recomputes it.

The file tree is the only index.  A blob's size is its ``st_size`` and
its recency is its mtime: every put and every hit sets the mtime to
``time.time_ns()`` (explicitly, because back-to-back puts can share one
kernel file timestamp).  After a put, one scan of ``objects/`` sums the
sizes; only when the sum is over the byte budget are the blobs sorted
by (mtime, path) and the least recently used unlinked, never the one
just written.  No bookkeeping lives in memory or in a side file, so
every handle, thread and process sharing a root (a CLI ``--store`` run
next to a live daemon) sees the same store without a lock: a stat or
unlink that finds a blob already gone (another process evicted it)
skips that blob.  Blob IO, checksumming and (un)pickling run in the
calling thread with nothing held.

Keys (:mod:`repro.service.keys`) cover the package source, so a blob
written by other code is never looked up: after an edit, every key is
new and the old blobs age out through the budget.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import struct
import time
import zlib
from pathlib import Path
from typing import Any, Optional

from repro.obs import get_logger, metrics, trace
from repro.service.keys import ContentKey
from repro.snapshot import dumps_snapshot, loads_snapshot

log = get_logger("repro.service.store")

#: Blob header: magic, sha256(compressed payload), payload byte length.
_MAGIC = b"RPRART01"
_HEADER = struct.Struct(f">{len(_MAGIC)}s32sQ")

#: Default size budget: enough for a few hundred prepared benchmark
#: designs at the ~1 MB flat-snapshot scale.
DEFAULT_BUDGET_BYTES = 2 << 30

#: zlib level: decompression speed is what warm paths pay; 6 buys
#: little over 3 here and costs 3x the compress time on 17 MB reports.
COMPRESS_LEVEL = 3

_tmp_counter = itertools.count()


class ArtifactCorruptError(Exception):
    """Blob failed header, checksum or payload validation."""


def write_artifact_bytes(obj: Any) -> bytes:
    """Frame *obj* as one self-validating artifact blob."""
    payload = zlib.compress(dumps_snapshot(obj), COMPRESS_LEVEL)
    header = _HEADER.pack(_MAGIC, hashlib.sha256(payload).digest(),
                          len(payload))
    return header + payload


def read_artifact_bytes(blob: bytes) -> Any:
    """Validate and unpickle one artifact blob.

    Raises :class:`ArtifactCorruptError` on any truncation, bit-flip
    or undecodable payload — callers turn that into a cache miss.
    """
    if len(blob) < _HEADER.size:
        raise ArtifactCorruptError(
            f"blob shorter than header ({len(blob)} bytes)")
    magic, digest, length = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise ArtifactCorruptError(f"bad magic {magic!r}")
    payload = blob[_HEADER.size:]
    if len(payload) != length:
        raise ArtifactCorruptError(
            f"payload length {len(payload)} != header {length}")
    if hashlib.sha256(payload).digest() != digest:
        raise ArtifactCorruptError("payload checksum mismatch")
    try:
        return loads_snapshot(zlib.decompress(payload))
    except Exception as exc:        # zlib.error, pickle errors, EOF...
        raise ArtifactCorruptError(f"payload undecodable: {exc!r}") \
            from exc


def read_artifact(path: str | Path) -> Any:
    """Read + validate one artifact file (e.g. a served report path)."""
    return read_artifact_bytes(Path(path).read_bytes())


def _touch(path: str | Path) -> bool:
    """Mark *path* most recently used; False when it is gone."""
    now = time.time_ns()
    try:
        os.utime(path, ns=(now, now))
    except FileNotFoundError:
        return False
    return True


class ArtifactStore:
    """Content-addressed persistent cache; see the module docstring."""

    def __init__(self, root: str | Path,
                 budget_bytes: int = DEFAULT_BUDGET_BYTES):
        self.root = Path(root)
        self.budget_bytes = int(budget_bytes)
        self._objects = self.root / "objects"
        self._tmp = self.root / "tmp"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._tmp.mkdir(parents=True, exist_ok=True)

    def object_path(self, key: ContentKey) -> Path:
        """Where *key*'s blob lives (exists only after a put)."""
        return (self._objects / key.hexdigest[:2]
                / f"{key.kind}-{key.hexdigest}.bin")

    # -- operations ----------------------------------------------------------

    def get(self, key: ContentKey) -> Optional[Any]:
        """The stored object, or ``None`` on miss or corruption."""
        path = self.object_path(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            metrics.inc("store.misses")
            metrics.inc(f"store.misses.{key.kind}")
            return None
        with trace.span("store.get", kind=key.kind, key=key.short):
            try:
                obj = read_artifact_bytes(blob)
            except ArtifactCorruptError as exc:
                metrics.inc("store.corrupt")
                log.warning(f"corrupt artifact {key}: {exc}; "
                            f"dropping and treating as a miss")
                path.unlink(missing_ok=True)
                metrics.inc("store.misses")
                metrics.inc(f"store.misses.{key.kind}")
                return None
        # The bytes are in hand: a blob evicted since the read is
        # still a hit.
        _touch(path)
        metrics.inc("store.hits")
        metrics.inc(f"store.hits.{key.kind}")
        return obj

    def put(self, key: ContentKey, obj: Any) -> None:
        """Persist *obj* under *key* atomically."""
        path = self.object_path(key)
        if _touch(path):
            # Content-addressed: an existing blob is the same bytes;
            # refreshing its recency is the whole put.
            return
        # os.replace makes the publish atomic even if another thread
        # or process races the same key (same content either way).
        with trace.span("store.put", kind=key.kind, key=key.short):
            blob = write_artifact_bytes(obj)
            tmp = self._tmp / (f"put-{os.getpid()}"
                               f"-{next(_tmp_counter)}")
            try:
                with open(tmp, "wb") as fh:
                    fh.write(blob)
                    fh.flush()
                    os.fsync(fh.fileno())
                path.parent.mkdir(parents=True, exist_ok=True)
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
        _touch(path)
        total = self._evict(keep=str(path))
        metrics.inc("store.puts")
        metrics.inc(f"store.puts.{key.kind}")
        metrics.set_gauge("store.bytes", total)

    def _scan(self) -> list[tuple[int, str, int]]:
        """``(mtime_ns, path, size)`` of every blob, in no order."""
        blobs = []
        with os.scandir(self._objects) as shards:
            for shard in shards:
                if not shard.is_dir():
                    continue
                with os.scandir(shard.path) as entries:
                    for entry in entries:
                        if not entry.name.endswith(".bin"):
                            continue
                        try:
                            st = entry.stat()
                        except FileNotFoundError:   # evicted meanwhile
                            continue
                        blobs.append((st.st_mtime_ns, entry.path,
                                      st.st_size))
        return blobs

    def _evict(self, keep: str) -> int:
        """Unlink least-recently-used blobs, never *keep*, until the
        store fits its budget; the bytes left on disk."""
        blobs = self._scan()
        total = sum(size for _, _, size in blobs)
        if total <= self.budget_bytes:
            return total
        for _, path, size in sorted(blobs):
            if total <= self.budget_bytes:
                break
            if path == keep:
                continue
            try:
                os.unlink(path)
            except FileNotFoundError:    # another process evicted it
                pass
            else:
                metrics.inc("store.evictions")
                log.debug(f"evicted {os.path.basename(path)} "
                          f"({size} bytes)")
            total -= size
        return total

    # -- introspection -------------------------------------------------------

    def contains(self, key: ContentKey) -> bool:
        return self.object_path(key).exists()

    def total_bytes(self) -> int:
        return sum(size for _, _, size in self._scan())

    def stats(self) -> dict:
        kinds: dict[str, int] = {}
        total = 0
        for _, path, size in self._scan():
            kind = os.path.basename(path).rpartition("-")[0]
            kinds[kind] = kinds.get(kind, 0) + 1
            total += size
        return {"root": str(self.root),
                "entries": sum(kinds.values()),
                "bytes": total,
                "budget_bytes": self.budget_bytes,
                "kinds": dict(sorted(kinds.items()))}

    def clear(self) -> None:
        """Drop every artifact (tests, ``service`` cache resets)."""
        for path in self._objects.glob("*/*.bin"):
            path.unlink(missing_ok=True)
