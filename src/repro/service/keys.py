"""Canonical content-hash keys for flow artifacts.

Both caches in the repo — the per-process flow memo
(:func:`repro.harness.tables.run_benchmark_flows`) and the on-disk
:class:`repro.service.store.ArtifactStore` — derive their keys here, so
"what makes two runs the same" has exactly one definition.

A key digests *content*, never identity: the netlist factory (module
path + closure/default values + a code fingerprint covering bytecode,
constant pool, names and nested code objects), a SHA-256 over the
pickled :class:`~repro.design.TechSetup`, the experiment seed (an
``int``: a flow is a pure function of it, see :mod:`repro.rng`), and
the flow-config fields, every one of which can change results.

Stage keys are prefix-shaped on purpose: ``generate``/``partition``/
``place`` depend only on (factory, tech, seed), and ``prepared`` adds
target frequency + scan.  A frequency or scan sweep therefore shares
the expensive placement artifact across every cell of the sweep.

Objects the canonicalizer cannot fingerprint (ad-hoc test stand-ins,
closures over live designs) degrade to *unstable* keys: still unique
within the process — :func:`canonical` folds in ``id()`` and the
flow memo retains the object alongside the key so ids can never be
recycled into a collision — but refused by the persistent store.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import types
from dataclasses import dataclass
from typing import Any, Callable

from repro.snapshot import dumps_snapshot

#: Bump to invalidate every previously-derived key (schema change in
#: what a key covers, not in the artifact payload format — the store
#: has its own version for that).  2: factory bytecode fingerprints
#: cover co_consts/co_names/co_freevars and nested code objects, not
#: co_code alone (constants are referenced by index, so a literal
#: edit used to leave co_code byte-identical).  3: the place stage key
#: covers the solver backend (cg placements differ within tolerance,
#: not bit-exactly), and the route ``batch_ms`` dispatch-sizing knob
#: is excluded as result-neutral.  4: the place stage key lost its
#: solver and region-parallel fields — the cg/auto backends and the
#: region-parallel mode were deleted, so placement depends on
#: (factory, tech, seed) alone.  5: flow keys cover the whole
#: ``RouteConfig`` — the wavefront router and its ``batch_ms`` knob
#: were deleted, so every route field is result-relevant.  6: flow
#: keys cover a nine-field ``TrainConfig`` — the selector trains and
#: infers on padded batches only, so the flag that switched it to
#: per-graph op-by-op forwards was deleted (that reference now lives
#: in the test suite).  7: flow keys cover a nine-field ``FlowConfig``
#: and a four-field ``TrainConfig`` — knobs with one value in use became
#: constants, so the route config left the key.
KEY_SCHEMA_VERSION = 7


@dataclass(frozen=True)
class ContentKey:
    """One addressable artifact identity.

    ``stable`` is False when any input could only be fingerprinted by
    object identity — such keys work for in-memory memoization (the
    flow memo keeps the object alive, pinning its id) but must never be
    persisted.
    """

    kind: str
    hexdigest: str
    stable: bool = True

    @property
    def short(self) -> str:
        return self.hexdigest[:12]

    def __str__(self) -> str:  # pragma: no cover - debug aid
        mark = "" if self.stable else "!unstable"
        return f"{self.kind}:{self.short}{mark}"


@dataclass(frozen=True)
class PrepareKeys:
    """Stage-artifact keys for one prepare chain (see module doc)."""

    generate: ContentKey       # Netlist
    partition: ContentKey      # TierAssignment (carries the netlist)
    place: ContentKey          # (Placement, Floorplan)
    prepared: ContentKey       # fully buffered Design

    @property
    def stable(self) -> bool:
        return self.prepared.stable


def canonical(obj: Any, unstable: list | None = None) -> Any:
    """JSON-ready canonical form of *obj*, deterministic across
    processes for the types keys are built from.

    Unrepresentable leaves become ``"@<type>:<id>"`` markers and flag
    *unstable* (a one-element-appended list used as an out-param).
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
            out[field.name] = canonical(getattr(obj, field.name), unstable)
        return out
    if isinstance(obj, (list, tuple)):
        return [canonical(item, unstable) for item in obj]
    if isinstance(obj, (set, frozenset)):
        members = [canonical(item, unstable) for item in obj]
        return {"__set__": sorted(members, key=lambda m: json.dumps(
            m, sort_keys=True, default=str))}
    if isinstance(obj, dict):
        return {"__dict__": sorted(
            ([canonical(k, unstable), canonical(v, unstable)]
             for k, v in obj.items()),
            key=lambda kv: json.dumps(kv[0], sort_keys=True, default=str))}
    # numpy scalars sneak into configs via arithmetic; unwrap them.
    item = getattr(obj, "item", None)
    if callable(item) and getattr(obj, "shape", None) == ():
        return canonical(obj.item(), unstable)
    if isinstance(obj, types.CodeType):
        return _code_fingerprint(obj, unstable)
    if callable(obj):
        return factory_token(obj, unstable)
    if unstable is not None:
        unstable.append(type(obj).__qualname__)
    return f"@{type(obj).__module__}.{type(obj).__qualname__}:{id(obj):x}"


def _code_fingerprint(code: types.CodeType,
                      unstable: list | None = None) -> Any:
    """Canonical content form of one code object.

    Bytecode references constants and names *by index*, so ``co_code``
    alone is blind to literal edits (``bandwidth=8`` -> ``16`` leaves
    it byte-identical).  The fingerprint therefore covers the constant
    pool, name tables and free variables too, recursing into nested
    code objects (inner functions, lambdas, comprehensions) found in
    ``co_consts``.
    """
    return {
        "__code__": hashlib.sha256(code.co_code).hexdigest(),
        "consts": [canonical(const, unstable)
                   for const in code.co_consts],
        "names": list(code.co_names),
        "freevars": list(code.co_freevars),
    }


def factory_token(fn: Callable, unstable: list | None = None) -> Any:
    """Content fingerprint of a netlist factory (or any callable).

    Precedence: an explicit ``__content_token__`` attribute (used e.g.
    by the Verilog-import factory, which hashes the file bytes);
    ``functools.partial`` recurses; plain functions fingerprint as
    module-qualified name + closure cell values + defaults + the
    :func:`_code_fingerprint` of their code object (bytecode, constant
    pool, names, free variables, nested code), so editing the factory
    body — including a bare literal — invalidates its keys.
    """
    token = getattr(fn, "__content_token__", None)
    if token is not None:
        return {"__factory_token__": str(token)}
    if isinstance(fn, functools.partial):
        return {"__partial__": factory_token(fn.func, unstable),
                "args": canonical(fn.args, unstable),
                "kwargs": canonical(fn.keywords, unstable)}
    bound = getattr(fn, "__self__", None)
    if bound is not None:
        return {"__method__": f"{getattr(fn, '__qualname__', '?')}",
                "self": canonical(bound, unstable)}
    out: dict[str, Any] = {
        "__factory__":
            f"{getattr(fn, '__module__', '?')}."
            f"{getattr(fn, '__qualname__', '?')}"}
    code = getattr(fn, "__code__", None)
    if code is not None:
        out["code"] = _code_fingerprint(code, unstable)
        cells = getattr(fn, "__closure__", None) or ()
        if cells:
            closure = {}
            for var, cell in zip(code.co_freevars, cells):
                try:
                    value = cell.cell_contents
                except ValueError:          # empty cell
                    value = "<empty>"
                closure[var] = canonical(value, unstable)
            out["closure"] = {"__dict__": sorted(
                ([k, v] for k, v in closure.items()),
                key=lambda kv: kv[0])}
        defaults = getattr(fn, "__defaults__", None)
        if defaults:
            out["defaults"] = canonical(defaults, unstable)
    elif not isinstance(fn, type):
        # Callable instance with opaque state: identity only.
        if unstable is not None:
            unstable.append(type(fn).__qualname__)
        out["instance"] = f"@{id(fn):x}"
    return out


def digest_key(kind: str, payload: Any) -> ContentKey:
    """Hash a canonical *payload* into a :class:`ContentKey`."""
    unstable: list = []
    value = canonical(payload, unstable)
    blob = json.dumps({"schema": KEY_SCHEMA_VERSION, "kind": kind,
                       "key": value},
                      sort_keys=True, default=str).encode("utf-8")
    return ContentKey(kind, hashlib.sha256(blob).hexdigest(),
                      stable=not unstable)


def tech_digest(tech) -> str:
    """SHA-256 over the pickled tech setup — equal-by-construction
    :class:`~repro.design.TechSetup` instances share one digest."""
    return hashlib.sha256(dumps_snapshot(tech)).hexdigest()


def _base(factory, tech, seed: int) -> dict:
    return {"factory": factory, "tech": tech_digest(tech),
            "seed": int(seed)}


def prepare_stage_keys(factory, tech, seed: int, config) -> PrepareKeys:
    """Keys for the four prepare artifacts of one flow configuration.

    *config* is a :class:`repro.core.flow.FlowConfig` (anything with
    the same field names works).  Only the fields each stage chain
    actually consumes participate — see the module docstring.
    """
    base = _base(factory, tech, seed)
    prepared = dict(base,
                    freq_mhz=float(config.target_freq_mhz),
                    scan=bool(config.with_scan))
    return PrepareKeys(
        generate=digest_key("prepare.generate", base),
        partition=digest_key("prepare.partition", base),
        place=digest_key("prepare.place", base),
        prepared=digest_key("prepare.design", prepared),
    )


def config_fingerprint(config) -> Any:
    """Canonical form of every flow-config field."""
    return {field.name: getattr(config, field.name)
            for field in dataclasses.fields(config)}


def flow_key(factory, tech, seed: int, config) -> ContentKey:
    """Key of one complete flow run's :class:`FlowReport`."""
    payload = dict(_base(factory, tech, seed),
                   config=config_fingerprint(config))
    return digest_key("flow.report", payload)


def flow_summary_key(factory, tech, seed: int, config) -> ContentKey:
    """Key of the lightweight (row + digests) flow summary artifact."""
    payload = dict(_base(factory, tech, seed),
                   config=config_fingerprint(config))
    return digest_key("flow.summary", payload)
