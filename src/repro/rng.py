"""Deterministic named random streams.

Every stochastic component of the library (netlist generators, placement
jitter, DGI corruption, weight init, fault-simulation patterns) draws
from a *named* stream derived from a single experiment seed, a plain
``int`` that every layer passes down.  Naming the streams decouples
them: adding a draw in one component does not perturb another
component's sequence, so experiment tables reproduce exactly even as
the code evolves.  Each :func:`stream` call starts its sequence from
the beginning, so a flow is a pure function of its seed: no generator
outlives the call that drew from it.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _stream_seed(seed: int, name: str) -> int:
    """Derive a 63-bit child seed from (seed, name) via SHA-256."""
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF


def stream(name: str, seed: int) -> np.random.Generator:
    """Return an independent :class:`numpy.random.Generator` for *name*.

    The same (name, seed) pair always yields an identical sequence.

    >>> a = stream("placement", 1).random()
    >>> b = stream("placement", 1).random()
    >>> a == b
    True
    >>> stream("placement", 1).random() == stream("routing", 1).random()
    False
    """
    if not name:
        raise ValueError("stream name must be non-empty")
    return np.random.default_rng(_stream_seed(seed, name))

