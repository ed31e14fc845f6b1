"""Deep-object pickling for design snapshots.

The table harness's shared prepare, the artifact store and the content
keys all pickle whole prepared designs (netlist, placement, routing
results) with :func:`dumps_snapshot` and restore them with
:func:`loads_snapshot`.
"""

from __future__ import annotations

import pickle
import sys
from typing import Any, Callable, TypeVar

T = TypeVar("T")


def _with_raised_recursion(fn: Callable[[], T]) -> T:
    """Call *fn* with the recursion limit raised to at least 50,000.

    Netlists serialize flat (struct-of-arrays ``__getstate__`` — see
    :mod:`repro.netlist.soa`), so snapshot depth no longer scales with
    design size and the default interpreter limit usually suffices.
    The modest raise is for arbitrary user payloads (nested route
    trees, ad-hoc test objects).  A limit of 1,000,000 is too far:
    raising the Python limit that far overran the C stack and turned a
    clean RecursionError into a segfault on 128PE-class designs.
    """
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 50_000))
    try:
        return fn()
    finally:
        sys.setrecursionlimit(old)


def dumps_snapshot(obj: Any) -> bytes:
    """Pickle *obj* with headroom for moderately nested payloads."""
    return _with_raised_recursion(
        lambda: pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def loads_snapshot(payload: bytes) -> Any:
    """Inverse of :func:`dumps_snapshot`."""
    return _with_raised_recursion(lambda: pickle.loads(payload))
