"""Deep-object pickling for design snapshots.

The prepare cache, the artifact store and the content keys all pickle
whole prepared designs (netlist, placement, routing results) with
:func:`dumps_snapshot` and restore them with :func:`loads_snapshot`.
"""

from __future__ import annotations

import pickle
import sys
from typing import Any, Callable, TypeVar

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
