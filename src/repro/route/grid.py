"""Gcell congestion grid.

Tracks routing-track demand per (tier, layer-pair, gcell) and F2F-pad
demand per gcell.  Capacities derive from layer pitch and gcell size;
a configurable fraction of the *top* pair is reserved for the PDN —
that reservation is exactly the "remaining routing resources are
utilized for the 2D or MLS nets" coupling of Section III-E.

Demand only ever moves in whole tracks (a routed edge adds one track
per gcell, a cross-tier edge one pad per F2F via), so each plane is a
flat list of Python ints, indexed ``ix * ny + iy``.  The router asks
one question per tree edge — "is this path full?" (:meth:`path_full`)
— and answers it with an int sum and one threshold lookup instead of
a float32 sum.  The float32 view survives where results are reported:
:meth:`path_load` returns the float32 load the SOTA selector compares
against its trigger, and :attr:`CongestionGrid.usage` /
:attr:`CongestionGrid.f2f_usage` are read-only float32 ``(nx, ny)``
snapshots, byte for byte the planes a float32 grid would hold (the
reference float32 grid is ``tests/grid_oracle.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import RoutingError
from repro.place.floorplan import Floorplan
from repro.tech.layers import F2FVia, MetalStack

#: capacity -> ``table`` with ``table[n]`` the least whole-track total
#: whose load over an ``n``-gcell path reaches 1.0 (see
#: :func:`_full_thresholds`); shared by every grid of the process.
_FULL_AT: dict[float, list[int]] = {}


def _load(total: int, cap: float, n: int):
    """The float32 load of *total* tracks over *n* gcells of capacity
    *cap*: what :meth:`CongestionGrid.path_load` returns."""
    return np.float32(total) / (cap * n)


def _full_thresholds(cap: float, longest: int) -> list[int]:
    """Per-path-length "full" thresholds for capacity *cap*.

    ``table[n]`` is the least int ``t`` with ``_load(t, cap, n) >=
    1.0``, for every ``n`` up to *longest* (``table[0]`` is 1: an empty
    path is never full).  The thresholds are found by evaluating that
    float32 expression itself, not its real-number value ``cap * n``:
    the load rounds ``cap * n`` to float32 and rounds the quotient
    again, so near ``cap * n`` the two can disagree by one track, and
    only the float32 expression is what :meth:`CongestionGrid.path_load`
    (and through it the SOTA trigger) reports.  The load is
    non-decreasing in ``t``, so ``total >= table[n]`` is exactly
    ``path_load >= 1.0``.
    """
    table = _FULL_AT.setdefault(cap, [1])
    for n in range(len(table), longest + 1):
        t = math.ceil(cap * n)
        while _load(t - 1, cap, n) >= 1.0:
            t -= 1
        while _load(t, cap, n) < 1.0:
            t += 1
        table.append(t)
    return table


def _whole(delta) -> int:
    """*delta* as an int; a fractional demand change is refused."""
    try:
        step = int(delta)
    except (ValueError, OverflowError):
        step = None
    if step is None or step != delta:
        raise RoutingError(
            f"grid demand moves in whole tracks, got delta {delta!r}")
    return step


class CongestionGrid:
    """Per-tier, per-pair track usage plus F2F pad usage."""

    def __init__(self, fp: Floorplan, stacks: tuple[MetalStack, MetalStack],
                 f2f: F2FVia, gcell_um: float = 5.0,
                 track_util: float = 0.5,
                 pdn_reserved: tuple[float, float] = (0.0, 0.0)):
        if gcell_um <= 0:
            raise RoutingError("gcell size must be positive")
        self.gcell = gcell_um
        self.nx = max(1, math.ceil(fp.width / gcell_um))
        self.ny = max(1, math.ceil(fp.height / gcell_um))
        self.stacks = stacks
        self.f2f = f2f
        self.pdn_reserved = pdn_reserved
        cells = self.nx * self.ny
        # An L-path crosses at most nx + ny - 1 gcells.
        longest = self.nx + self.ny

        # capacity[tier][pair] = usable tracks crossing one gcell
        self.capacity: list[list[float]] = []
        self._usage: list[list[list[int]]] = []
        self._full_at: list[list[list[int]]] = []
        for tier, stack in enumerate(stacks):
            caps = []
            pairs = stack.pairs()
            for pair_idx, (la, lb) in enumerate(pairs):
                pitch = (la.pitch_um + lb.pitch_um) / 2.0
                tracks = (gcell_um / pitch) * 2.0 * track_util
                if pair_idx == len(pairs) - 1:
                    tracks *= max(0.0, 1.0 - pdn_reserved[tier])
                caps.append(max(1.0, tracks))
            self.capacity.append(caps)
            self._usage.append([[0] * cells for _ in caps])
            self._full_at.append([_full_thresholds(cap, longest)
                                  for cap in caps])

        # F2F pads: one per pitch^2 of gcell area, halved for power/gnd.
        self.f2f_cap = max(1.0, (gcell_um / f2f.pitch_um) ** 2 * 0.5)
        self._f2f: list[int] = [0] * cells

    def num_pairs(self, tier: int) -> int:
        return len(self.capacity[tier])

    def top_pair(self, tier: int) -> int:
        return len(self.capacity[tier]) - 1

    def clamp_cell(self, x: float, y: float) -> tuple[int, int]:
        ix = min(max(int(x / self.gcell), 0), self.nx - 1)
        iy = min(max(int(y / self.gcell), 0), self.ny - 1)
        return ix, iy

    # Every query and mutation takes gcells as flat indices
    # ``ix * ny + iy`` into the row-major (nx, ny) planes, the form
    # :class:`~repro.route.steiner.RouteTopology` stores.

    # -- demand queries ------------------------------------------------------

    def path_full(self, tier: int, pair: int, cells) -> bool:
        """Whether *cells* is full for (tier, pair): exactly
        ``path_load(tier, pair, cells) >= 1.0``, from an int sum and
        one threshold lookup."""
        plane = self._usage[tier][pair]
        total = sum(map(plane.__getitem__, cells))
        try:
            return total >= self._full_at[tier][pair][len(cells)]
        except IndexError:      # longer than any L-path of this grid
            return self.path_load(tier, pair, cells) >= 1.0

    def path_load(self, tier: int, pair: int, cells):
        """Mean usage/capacity ratio along *cells* for (tier, pair), as
        float32.

        Mean (not max): a detailed router weaves around single hot
        gcells, so a path is only "full" at global-routing abstraction
        when congestion is sustained along it.
        """
        if not len(cells):
            return 0.0
        plane = self._usage[tier][pair]
        return _load(sum(map(plane.__getitem__, cells)),
                     self.capacity[tier][pair], len(cells))

    def f2f_load(self, cell: int) -> float:
        return self._f2f[cell] / self.f2f_cap

    def in_use(self) -> bool:
        """Whether any track or F2F pad holds demand."""
        return any(self._f2f) or any(any(plane) for tier in self._usage
                                     for plane in tier)

    # -- mutation ---------------------------------------------------------------

    def add_path(self, tier: int, pair: int, cells, delta: int = 1) -> None:
        """Add *delta* whole tracks on every gcell of *cells*; a release
        clamps each gcell at zero."""
        step = _whole(delta)
        plane = self._usage[tier][pair]
        if step >= 0:
            for cell in cells:
                plane[cell] += step
        else:
            for cell in cells:
                value = plane[cell] + step
                plane[cell] = value if value > 0 else 0

    def add_f2f(self, cell: int, delta: int = 1) -> None:
        """Add *delta* whole F2F pads at *cell*, clamped at zero."""
        value = self._f2f[cell] + _whole(delta)
        self._f2f[cell] = value if value > 0 else 0

    # -- float32 snapshots ------------------------------------------------------

    def _snapshot(self, plane: list[int]) -> np.ndarray:
        out = np.array(plane, dtype=np.float32).reshape(self.nx, self.ny)
        out.flags.writeable = False
        return out

    def plane(self, tier: int, pair: int) -> np.ndarray:
        """Read-only float32 ``(nx, ny)`` snapshot of one pair's demand."""
        return self._snapshot(self._usage[tier][pair])

    @property
    def usage(self) -> list[list[np.ndarray]]:
        """Read-only float32 snapshots of every (tier, pair) plane."""
        return [[self.plane(tier, pair) for pair in range(len(caps))]
                for tier, caps in enumerate(self.capacity)]

    @property
    def f2f_usage(self) -> np.ndarray:
        """Read-only float32 snapshot of the F2F pad demand."""
        return self._snapshot(self._f2f)

    # -- reporting ---------------------------------------------------------------

    def overflow_cells(self, tier: int, pair: int) -> int:
        """Number of gcells where demand exceeds capacity."""
        return int((self.plane(tier, pair) > self.capacity[tier][pair]).sum())

    def utilization(self, tier: int, pair: int) -> float:
        """Mean demand / capacity over the grid for (tier, pair)."""
        return float(self.plane(tier, pair).mean()
                     / self.capacity[tier][pair])

    def summary(self) -> dict[str, float]:
        out: dict[str, float] = {
            "f2f_peak": float(max(self._f2f)) / self.f2f_cap,
        }
        for tier in range(len(self.capacity)):
            for pair in range(self.num_pairs(tier)):
                key = f"t{tier}p{pair}"
                out[f"util_{key}"] = self.utilization(tier, pair)
                out[f"overflow_{key}"] = self.overflow_cells(tier, pair)
        return out
