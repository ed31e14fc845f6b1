"""On-disk content-addressed artifact store.

Layout under one root directory::

    <root>/objects/<aa>/<kind>-<sha256>.bin    artifact blobs
    <root>/index.json                          schema + LRU bookkeeping
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

The index tracks a monotone access sequence per entry; when the byte
budget overflows, least-recently-used artifacts are evicted.  A
missing, unreadable or schema-mismatched index is rebuilt by scanning
``objects/`` (artifacts are self-describing by filename).

Keys whose inputs could not be content-fingerprinted
(``ContentKey.stable == False``) are refused on both paths — an
identity-keyed artifact served to another process would be a lie.

Concurrency model: a process-local re-entrant lock guards index
mutation only — blob IO, checksumming and (un)pickling run outside it,
so daemon executor threads don't serialize on multi-MB payloads.
Recency touches are batched (flushed on put/eviction/corruption and
every :data:`TOUCH_FLUSH_INTERVAL` reads) instead of rewriting the
index per ``get``.  Across processes, every index write happens under
an advisory ``flock`` on ``index.lock`` and *merges* the on-disk view
first (adopting other writers' entries, dropping ones whose blobs were
evicted), so a CLI ``--store`` run and a live daemon sharing one root
cannot clobber each other's bookkeeping.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path
from threading import RLock
from typing import Any, Optional

try:
    import fcntl
except ImportError:              # pragma: no cover - non-POSIX
    fcntl = None

from repro.obs import get_logger, metrics, trace
from repro.service.keys import ContentKey
from repro.snapshot import dumps_snapshot, loads_snapshot

log = get_logger("repro.service.store")

#: Artifact-container format version (pickled payload framing).
STORE_SCHEMA_VERSION = 1

#: Blob header: magic, sha256(compressed payload), payload byte length.
_MAGIC = b"RPRART01"
_HEADER = struct.Struct(f">{len(_MAGIC)}s32sQ")

#: Default size budget: enough for a few hundred prepared benchmark
#: designs at the ~1 MB flat-snapshot scale.
DEFAULT_BUDGET_BYTES = 2 << 30

#: zlib level: decompression speed is what warm paths pay; 6 buys
#: little over 3 here and costs 3x the compress time on 17 MB reports.
COMPRESS_LEVEL = 3

#: Recency touches accumulated before the index is persisted on a
#: read-only path (puts/evictions flush immediately).  Losing up to
#: this many LRU-order updates in a crash only skews eviction order,
#: never correctness — blobs are self-validating.
TOUCH_FLUSH_INTERVAL = 64

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


class ArtifactStore:
    """Content-addressed persistent cache; see the module docstring."""

    def __init__(self, root: str | Path,
                 budget_bytes: int = DEFAULT_BUDGET_BYTES):
        self.root = Path(root)
        self.budget_bytes = int(budget_bytes)
        self._lock = RLock()
        self._objects = self.root / "objects"
        self._tmp = self.root / "tmp"
        self._index_path = self.root / "index.json"
        self._index_lock_path = self.root / "index.lock"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._tmp.mkdir(parents=True, exist_ok=True)
        #: hexdigest -> {"kind", "size", "seq"}
        self._entries: dict[str, dict] = {}
        self._seq = 0
        self._dirty = False
        self._touches_since_flush = 0
        self._load_index()

    # -- index ---------------------------------------------------------------

    def _load_index(self) -> None:
        try:
            data = json.loads(self._index_path.read_text())
            if data.get("schema") != STORE_SCHEMA_VERSION:
                raise ValueError(f"index schema {data.get('schema')!r}")
            self._entries = dict(data["entries"])
            self._seq = max((e["seq"] for e in self._entries.values()),
                            default=0)
        except FileNotFoundError:
            self._rebuild_index(reason=None)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            self._rebuild_index(reason=repr(exc))

    def _rebuild_index(self, reason: str | None) -> None:
        """Reconstruct bookkeeping by scanning ``objects/``."""
        if reason is not None:
            metrics.inc("store.index_rebuilds")
            log.warning(f"artifact index unusable ({reason}); "
                        f"rebuilding from object scan")
        self._entries = {}
        self._seq = 0
        for path in sorted(self._objects.glob("*/*.bin")):
            kind, _, hexdigest = path.stem.rpartition("-")
            if not kind or not hexdigest:
                continue
            self._entries[hexdigest] = {
                "kind": kind, "size": path.stat().st_size, "seq": 0}
        if self._entries or reason is not None:
            with self._ipc_lock():
                self._save_index()
        self._dirty = False
        self._touches_since_flush = 0

    @contextmanager
    def _ipc_lock(self):
        """Advisory inter-process lock serializing index writes.

        Blobs are content-addressed and written atomically, so only
        the index read-modify-write needs cross-process exclusion;
        without it two processes sharing one root (a CLI ``--store``
        run next to a live daemon) would last-writer-win each other's
        size/recency bookkeeping.
        """
        if fcntl is None:        # pragma: no cover - non-POSIX
            yield
            return
        fd = os.open(self._index_lock_path,
                     os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def _flush_index(self) -> None:
        """Persist bookkeeping (caller holds the process lock): merge
        concurrent writers' on-disk view, then write atomically."""
        with self._ipc_lock():
            self._merge_index_from_disk()
            self._save_index()
        self._dirty = False
        self._touches_since_flush = 0

    def _merge_index_from_disk(self) -> None:
        """Fold another process's index state into ours (under the
        inter-process lock).  Entries only they know are adopted when
        the blob still exists; entries only we know are kept unless
        their blob is gone (the other side evicted it); shared entries
        take the freshest access sequence."""
        try:
            data = json.loads(self._index_path.read_text())
            if data.get("schema") != STORE_SCHEMA_VERSION:
                return
            disk = dict(data["entries"])
        except (FileNotFoundError, ValueError, KeyError,
                TypeError, OSError):
            return
        for hexdigest, entry in disk.items():
            ours = self._entries.get(hexdigest)
            if ours is None:
                if self._blob_path(hexdigest, entry["kind"]).exists():
                    self._entries[hexdigest] = dict(entry)
            else:
                ours["seq"] = max(ours["seq"], entry.get("seq", 0))
        for hexdigest in [h for h in self._entries if h not in disk]:
            entry = self._entries[hexdigest]
            if not self._blob_path(hexdigest, entry["kind"]).exists():
                del self._entries[hexdigest]
        self._seq = max([self._seq] + [e.get("seq", 0)
                                       for e in self._entries.values()])

    def _save_index(self) -> None:
        blob = json.dumps({"schema": STORE_SCHEMA_VERSION,
                           "entries": self._entries},
                          sort_keys=True).encode("utf-8")
        tmp = self._tmp / f"index-{os.getpid()}-{next(_tmp_counter)}"
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, self._index_path)
        finally:
            tmp.unlink(missing_ok=True)

    # -- paths ---------------------------------------------------------------

    def object_path(self, key: ContentKey) -> Path:
        """Where *key*'s blob lives (exists only after a put)."""
        return self._blob_path(key.hexdigest, key.kind)

    def _blob_path(self, hexdigest: str, kind: str) -> Path:
        return self._objects / hexdigest[:2] / f"{kind}-{hexdigest}.bin"

    # -- operations ----------------------------------------------------------

    def get(self, key: ContentKey) -> Optional[Any]:
        """The stored object, or ``None`` on miss/corruption/unstable."""
        if not key.stable:
            metrics.inc("store.unstable_key_skips")
            return None
        path = self.object_path(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            metrics.inc("store.misses")
            metrics.inc(f"store.misses.{key.kind}")
            return None
        # Validation + unpickling run lock-free: the blob bytes are in
        # hand and immutable, so concurrent readers never serialize on
        # multi-MB payload work.
        with trace.span("store.get", kind=key.kind, key=key.short):
            try:
                obj = read_artifact_bytes(blob)
            except ArtifactCorruptError as exc:
                metrics.inc("store.corrupt")
                log.warning(f"corrupt artifact {key}: {exc}; "
                            f"dropping and treating as a miss")
                path.unlink(missing_ok=True)
                with self._lock:
                    self._entries.pop(key.hexdigest, None)
                    self._flush_index()
                metrics.inc("store.misses")
                metrics.inc(f"store.misses.{key.kind}")
                return None
        with self._lock:
            self._touch(key, len(blob))
        metrics.inc("store.hits")
        metrics.inc(f"store.hits.{key.kind}")
        return obj

    def _touch(self, key: ContentKey, size: int) -> None:
        """Refresh recency (caller holds the lock); persistence is
        batched — see :data:`TOUCH_FLUSH_INTERVAL`."""
        self._seq += 1
        entry = self._entries.setdefault(
            key.hexdigest, {"kind": key.kind, "size": size, "seq": 0})
        entry["seq"] = self._seq
        self._dirty = True
        self._touches_since_flush += 1
        if self._touches_since_flush >= TOUCH_FLUSH_INTERVAL:
            self._flush_index()

    def put(self, key: ContentKey, obj: Any) -> bool:
        """Persist *obj* under *key* atomically; False when refused."""
        if not key.stable:
            metrics.inc("store.unstable_key_skips")
            return False
        path = self.object_path(key)
        if path.exists():
            # Content-addressed: an existing blob is the same bytes;
            # just refresh recency.
            with self._lock:
                self._touch(key, path.stat().st_size)
            return True
        # Pickle + compress + write outside the lock; os.replace makes
        # the publish atomic even if another thread races the same key
        # (same content either way).
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
        with self._lock:
            self._touch(key, len(blob))
            self._evict(keep=key.hexdigest)
            self._flush_index()
            total = self.total_bytes()
        metrics.inc("store.puts")
        metrics.inc(f"store.puts.{key.kind}")
        metrics.set_gauge("store.bytes", total)
        return True

    def _evict(self, keep: str) -> None:
        """Drop least-recently-used entries until under budget (caller
        holds the lock and flushes the index afterwards)."""
        while self.total_bytes() > self.budget_bytes:
            victims = sorted(
                (entry["seq"], hexdigest)
                for hexdigest, entry in self._entries.items()
                if hexdigest != keep)
            if not victims:
                break
            _, hexdigest = victims[0]
            entry = self._entries.pop(hexdigest)
            self._blob_path(hexdigest, entry["kind"]).unlink(
                missing_ok=True)
            metrics.inc("store.evictions")
            log.debug(f"evicted {entry['kind']}:{hexdigest[:12]} "
                      f"({entry['size']} bytes)")
            self._dirty = True

    # -- introspection -------------------------------------------------------

    def contains(self, key: ContentKey) -> bool:
        return key.stable and self.object_path(key).exists()

    def total_bytes(self) -> int:
        return sum(e["size"] for e in self._entries.values())

    def stats(self) -> dict:
        with self._lock:
            kinds: dict[str, int] = {}
            for entry in self._entries.values():
                kinds[entry["kind"]] = kinds.get(entry["kind"], 0) + 1
            return {"root": str(self.root),
                    "entries": len(self._entries),
                    "bytes": self.total_bytes(),
                    "budget_bytes": self.budget_bytes,
                    "kinds": dict(sorted(kinds.items()))}

    def flush(self) -> None:
        """Persist any batched recency updates (daemon shutdown, end
        of a CLI invocation)."""
        with self._lock:
            if self._dirty:
                self._flush_index()

    def clear(self) -> None:
        """Drop every artifact (tests, ``service`` cache resets)."""
        with self._lock:
            for path in self._objects.glob("*/*.bin"):
                path.unlink(missing_ok=True)
            self._entries = {}
            self._flush_index()
