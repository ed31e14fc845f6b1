"""Canonical content-hash keys for the artifact store.

The on-disk :class:`repro.service.store.ArtifactStore` answers a
request by the key derived here, so "what makes two runs the same" has
exactly one definition.

A key digests *content*, never identity: one SHA-256 over the source
of the whole :mod:`repro` package (:func:`source_digest`), the netlist
factory (:func:`factory_token`), a SHA-256 over the pickled
:class:`~repro.design.TechSetup`, the experiment seed (an ``int``: a
flow is a pure function of it, see :mod:`repro.rng`), and the
flow-config fields, every one of which can change results.  Any edit
to the package — a placer constant, a learning rate, this module's
key format — moves every key, so a store never serves an artifact the
running code would not compute.  One digest covers the whole package
on purpose: a per-stage module list would be a second copy of the
import graph, and a missed import in it a silent stale hit.

There are two prepare keys, one per stored prepare artifact, and they
are prefix-shaped on purpose: ``place`` depends only on (source,
factory, tech, seed), and ``prepared`` adds target frequency + scan.
A frequency or scan sweep therefore shares the expensive placement
artifact across every cell of the sweep.

A value :func:`canonical` cannot name by content (an opaque object, a
``functools.partial``, a callable instance) raises :class:`TypeError`:
there is no identity-keyed fallback.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.snapshot import dumps_snapshot

#: Root of the :mod:`repro` package, whose ``.py`` files
#: :func:`source_digest` hashes.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class ContentKey:
    """One addressable artifact identity."""

    kind: str
    hexdigest: str

    @property
    def short(self) -> str:
        return self.hexdigest[:12]

    def __str__(self) -> str:
        return f"{self.kind}:{self.short}"


@dataclass(frozen=True)
class PrepareKeys:
    """Stage-artifact keys for one prepare chain (see module doc)."""

    place: ContentKey          # (Placement, Floorplan)
    prepared: ContentKey       # fully buffered Design


@functools.cache
def source_digest() -> str:
    """SHA-256 over every ``.py`` file of the :mod:`repro` package,
    computed once per process.  Each file enters under its
    package-relative path, so the install location does not matter."""
    h = hashlib.sha256()
    for rel, path in sorted((p.relative_to(_PACKAGE_ROOT).as_posix(), p)
                            for p in _PACKAGE_ROOT.rglob("*.py")):
        data = path.read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


@functools.cache
def _file_digest(filename: str) -> str:
    try:
        return hashlib.sha256(Path(filename).read_bytes()).hexdigest()
    except OSError:
        raise TypeError(f"cannot read {filename!r}, the source of a "
                        f"factory to key") from None


def canonical(obj: Any) -> Any:
    """JSON-ready canonical form of *obj*, deterministic across
    processes for the types keys are built from.

    Raises :class:`TypeError` for a value it cannot name by content.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # json repr round-trips doubles exactly in CPython.
        return obj
    if isinstance(obj, (bytes, bytearray)):
        return {"__bytes__": hashlib.sha256(bytes(obj)).hexdigest()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: dict[str, Any] = {
            "__dataclass__":
                f"{type(obj).__module__}.{type(obj).__qualname__}"}
        for field in dataclasses.fields(obj):
            out[field.name] = canonical(getattr(obj, field.name))
        return out
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        members = [canonical(item) for item in obj]
        return {"__set__": sorted(members, key=lambda m: json.dumps(
            m, sort_keys=True))}
    if isinstance(obj, dict):
        return {"__dict__": sorted(
            ([canonical(k), canonical(v)] for k, v in obj.items()),
            key=lambda kv: json.dumps(kv[0], sort_keys=True))}
    # numpy scalars sneak into configs via arithmetic; unwrap them.
    item = getattr(obj, "item", None)
    if callable(item) and getattr(obj, "shape", None) == ():
        return canonical(obj.item())
    if callable(obj):
        return factory_token(obj)
    raise TypeError(f"cannot key a {type(obj).__qualname__} by content")


def factory_token(fn: Callable) -> Any:
    """Content fingerprint of a netlist factory (or any function).

    An explicit ``__content_token__`` attribute wins (the ``--verilog``
    factory sets it to the file's SHA-256).  Otherwise a plain function
    is its qualified name, the SHA-256 of its defining file, its first
    line and its closure and default values: editing its file moves
    the key, and so does each closure a factory maker returns
    (``_maeri_factory(16, 8)`` against ``_maeri_factory(128, 32)``).
    Anything else (a ``functools.partial``, a bound method, a callable
    instance) raises :class:`TypeError`.
    """
    token = getattr(fn, "__content_token__", None)
    if token is not None:
        return {"__factory_token__": str(token)}
    if not isinstance(fn, types.FunctionType):
        raise TypeError(f"cannot key factory {fn!r} by content: pass a "
                        f"plain function")
    code = fn.__code__
    out: dict[str, Any] = {
        "__factory__": f"{fn.__module__}.{fn.__qualname__}",
        "file": _file_digest(code.co_filename),
        "line": code.co_firstlineno,
    }
    if fn.__closure__:
        out["closure"] = {var: canonical(cell.cell_contents) for var, cell
                          in zip(code.co_freevars, fn.__closure__)}
    if fn.__defaults__:
        out["defaults"] = canonical(fn.__defaults__)
    return out


def digest_key(kind: str, payload: Any) -> ContentKey:
    """Hash a canonical *payload*, under the package's
    :func:`source_digest`, into a :class:`ContentKey`."""
    blob = json.dumps({"source": source_digest(), "kind": kind,
                       "key": canonical(payload)},
                      sort_keys=True).encode("utf-8")
    return ContentKey(kind, hashlib.sha256(blob).hexdigest())


def tech_digest(tech) -> str:
    """SHA-256 over the pickled tech setup — equal-by-construction
    :class:`~repro.design.TechSetup` instances share one digest."""
    return hashlib.sha256(dumps_snapshot(tech)).hexdigest()


def _base(factory, tech, seed: int) -> dict:
    return {"factory": factory, "tech": tech_digest(tech),
            "seed": int(seed)}


def prepare_stage_keys(factory, tech, seed: int, config) -> PrepareKeys:
    """Keys for the two prepare artifacts of one flow configuration.

    *config* is a :class:`repro.core.flow.FlowConfig`.  Only the fields
    each stage chain actually consumes participate — see the module
    docstring.
    """
    base = _base(factory, tech, seed)
    prepared = dict(base,
                    freq_mhz=float(config.target_freq_mhz),
                    scan=bool(config.with_scan))
    return PrepareKeys(
        place=digest_key("prepare.place", base),
        prepared=digest_key("prepare.design", prepared),
    )


def flow_key(factory, tech, seed: int, config) -> ContentKey:
    """Key of one complete flow run's :class:`FlowReport`."""
    return digest_key("flow.report",
                      dict(_base(factory, tech, seed), config=config))


def flow_summary_key(factory, tech, seed: int, config) -> ContentKey:
    """Key of the lightweight (row + digests) flow summary artifact."""
    return digest_key("flow.summary",
                      dict(_base(factory, tech, seed), config=config))
