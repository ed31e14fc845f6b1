"""Cached-Laplacian quadratic placement engine.

The recursive-bisection placer solves the same connectivity Laplacian
at every level — only the SimPL-style anchor diagonal and the RHS
change as cells are committed to regions.  The seed implementation
re-walked every net in Python and rebuilt the COO system per level,
which dominated ``place_design`` wall-clock.  This module splits that
work into three cacheable layers:

* :class:`NetConnectivity` — one walk over the netlist producing flat
  NumPy arrays of the clique pairs and star edges (net models of
  ``quadratic.py``), independent of which instances are movable.  A
  ``place_design`` call builds it once and shares it between the
  macro-seeding pass and every bisection level.
* :func:`assemble_system` — whole-array classification of those arrays
  against a movable/fixed split, producing the base CSC Laplacian,
  the positions of its diagonal entries, and the base RHS.  No Python
  per-net loop.
* :class:`PlacementSystem` — serves any number of anchored solves from
  one assembly: each solve copies the base CSC data, adds the anchor
  weight at the precomputed diagonal slots (the sparsity pattern is
  shared across factorizations), and factorizes with SuperLU.

Contract: a reused ``PlacementSystem`` produces positions bit-identical
to rebuilding the system from scratch for every solve — the cache only
skips redundant work, it never changes the arithmetic.  This is locked
by ``tests/test_place_system.py`` and the ``bench_place.py`` gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import PlacementError
from repro.obs import metrics, trace
from repro.netlist.netlist import Netlist
from repro.place.floorplan import Floorplan

#: Nets up to this degree use the pairwise clique model.
CLIQUE_LIMIT = 4
#: Tiny pull to die center so fully floating components stay solvable.
CENTER_REG = 1e-6

#: (i, j) index pairs of the clique model, per net degree.
_PAIR_TEMPLATES = {
    d: np.array([(i, j) for i in range(d) for j in range(i + 1, d)],
                dtype=np.int64)
    for d in range(2, CLIQUE_LIMIT + 1)
}


class NetConnectivity:
    """Flat-array view of the clique/star net models of a netlist.

    Instances and port pins are interned into a *key id* vocabulary
    (``vocab``/``keys``); clique nets become ``(pair_a, pair_b,
    pair_w)`` key-id pairs, star nets become ``(star_vid, star_kid,
    star_w)`` edges grouped by virtual-node id.  The arrays depend
    only on the netlist, not on which instances are movable, so one
    instance serves every solve of a ``place_design`` call.
    """

    def __init__(self, vocab: dict[str, int], keys: list[str],
                 pair_a: np.ndarray, pair_b: np.ndarray,
                 pair_w: np.ndarray, star_vid: np.ndarray,
                 star_kid: np.ndarray, star_w: np.ndarray,
                 star_sizes: np.ndarray):
        self.vocab = vocab
        self.keys = keys
        self.pair_a = pair_a
        self.pair_b = pair_b
        self.pair_w = pair_w
        self.star_vid = star_vid
        self.star_kid = star_kid
        self.star_w = star_w
        self.star_sizes = star_sizes

    @property
    def n_keys(self) -> int:
        return len(self.keys)

    @property
    def n_stars(self) -> int:
        return len(self.star_sizes)

    @classmethod
    def from_netlist(cls, netlist: Netlist) -> "NetConnectivity":
        vocab: dict[str, int] = {}
        flat: list[int] = []            # clique pins, net-major
        clique_degs: list[int] = []
        star_flat: list[int] = []
        star_sizes: list[int] = []
        intern = vocab.setdefault
        for net in netlist.signal_nets():
            pins = net.pins()
            deg = len(pins)
            if deg < 2:
                continue
            if deg <= CLIQUE_LIMIT:
                append = flat.append
                clique_degs.append(deg)
            else:
                append = star_flat.append
                star_sizes.append(deg)
            for pin in pins:
                owner = pin.owner
                key = owner.name if owner is not None \
                    else f"port:{pin.port.name}"
                append(intern(key, len(vocab)))

        degs = np.asarray(clique_degs, dtype=np.int64)
        flat_arr = np.asarray(flat, dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(degs)])[:-1]
        chunks_a, chunks_b, chunks_w = [], [], []
        for d, template in _PAIR_TEMPLATES.items():
            sel = np.flatnonzero(degs == d)
            if not len(sel):
                continue
            base = offsets[sel][:, None]
            chunks_a.append(flat_arr[(base + template[:, 0]).ravel()])
            chunks_b.append(flat_arr[(base + template[:, 1]).ravel()])
            chunks_w.append(np.full(len(sel) * len(template),
                                    1.0 / (d - 1)))
        empty_i = np.empty(0, dtype=np.int64)
        pair_a = np.concatenate(chunks_a) if chunks_a else empty_i
        pair_b = np.concatenate(chunks_b) if chunks_b else empty_i
        pair_w = np.concatenate(chunks_w) if chunks_w \
            else np.empty(0, dtype=float)

        sizes = np.asarray(star_sizes, dtype=np.int64)
        star_kid = np.asarray(star_flat, dtype=np.int64)
        star_vid = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        star_w = np.repeat(2.0 / sizes, sizes) if len(sizes) \
            else np.empty(0, dtype=float)
        return cls(vocab, list(vocab), pair_a, pair_b, pair_w,
                   star_vid, star_kid, star_w, sizes)


@dataclass
class AssembledSystem:
    """One movable/fixed split's Laplacian, ready for anchored solves.

    ``data`` is the base CSC value array (connectivity + CENTER_REG,
    no anchors); ``diag_pos[i]`` is the position of entry ``(i, i)``
    inside ``data``.  ``bx``/``by`` are the base RHS.  A solve copies
    ``data`` and adds the anchor diagonal — the pattern
    (``indices``/``indptr``) is shared across every factorization.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    diag_pos: np.ndarray
    bx: np.ndarray
    by: np.ndarray
    n_movable: int
    n_total: int


def assemble_system(conn: NetConnectivity, kid_mov: np.ndarray,
                    kid_fx: np.ndarray, kid_fy: np.ndarray,
                    n_movable: int, width: float,
                    height: float) -> AssembledSystem:
    """Vectorized assembly of the quadratic system.

    ``kid_mov`` maps key id -> movable index (or -1); ``kid_fx`` /
    ``kid_fy`` hold fixed positions (NaN where the key has none, in
    which case the term is dropped — same as the seed ``add_edge``).
    """
    pa, pb, pw = conn.pair_a, conn.pair_b, conn.pair_w
    am, bm = kid_mov[pa], kid_mov[pb]
    both = (am >= 0) & (bm >= 0)
    a_only = (am >= 0) & (bm < 0) & ~np.isnan(kid_fx[pb])
    b_only = (bm >= 0) & (am < 0) & ~np.isnan(kid_fx[pa])

    diag = np.full(n_movable, CENTER_REG)
    np.add.at(diag, am[both], pw[both])
    np.add.at(diag, bm[both], pw[both])
    np.add.at(diag, am[a_only], pw[a_only])
    np.add.at(diag, bm[b_only], pw[b_only])
    bx = np.full(n_movable, CENTER_REG * width / 2.0)
    by = np.full(n_movable, CENTER_REG * height / 2.0)
    np.add.at(bx, am[a_only], pw[a_only] * kid_fx[pb][a_only])
    np.add.at(by, am[a_only], pw[a_only] * kid_fy[pb][a_only])
    np.add.at(bx, bm[b_only], pw[b_only] * kid_fx[pa][b_only])
    np.add.at(by, bm[b_only], pw[b_only] * kid_fy[pa][b_only])

    sk, sw, svid = conn.star_kid, conn.star_w, conn.star_vid
    n_virtual = conn.n_stars
    sm = kid_mov[sk]
    s_mov = sm >= 0
    s_fix = ~s_mov & ~np.isnan(kid_fx[sk])
    vdiag = np.zeros(n_virtual)
    np.add.at(vdiag, svid[s_mov], sw[s_mov])
    np.add.at(vdiag, svid[s_fix], sw[s_fix])
    np.add.at(diag, sm[s_mov], sw[s_mov])
    vbx = np.zeros(n_virtual)
    vby = np.zeros(n_virtual)
    np.add.at(vbx, svid[s_fix], sw[s_fix] * kid_fx[sk][s_fix])
    np.add.at(vby, svid[s_fix], sw[s_fix] * kid_fy[sk][s_fix])
    vdiag[vdiag == 0.0] = 1.0       # fully disconnected star; keep SPD

    n_total = n_movable + n_virtual
    rows = np.concatenate([am[both], bm[both],
                           n_movable + svid[s_mov], sm[s_mov]])
    cols = np.concatenate([bm[both], am[both],
                           sm[s_mov], n_movable + svid[s_mov]])
    vals = np.concatenate([-pw[both], -pw[both], -sw[s_mov], -sw[s_mov]])
    full_diag = np.concatenate([diag, vdiag])
    lap = sp.coo_matrix(
        (np.concatenate([vals, full_diag]),
         (np.concatenate([rows, np.arange(n_total)]),
          np.concatenate([cols, np.arange(n_total)]))),
        shape=(n_total, n_total)).tocsc()
    # The diagonal entry of every column exists structurally (appended
    # above), so its position in the merged data array is recoverable.
    col_of = np.repeat(np.arange(n_total), np.diff(lap.indptr))
    diag_pos = np.flatnonzero(lap.indices == col_of)
    if len(diag_pos) != n_total:    # pragma: no cover - structural bug
        raise PlacementError("placement system lost diagonal entries")
    return AssembledSystem(data=lap.data, indices=lap.indices,
                           indptr=lap.indptr, diag_pos=diag_pos,
                           bx=np.concatenate([bx, vbx]),
                           by=np.concatenate([by, vby]),
                           n_movable=n_movable, n_total=n_total)


def solve_assembled(asm: AssembledSystem,
                    anchor_idx: np.ndarray | None = None,
                    anchor_x: np.ndarray | None = None,
                    anchor_y: np.ndarray | None = None,
                    anchor_weight: float = 0.0
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Solve one anchored instance of *asm*; returns movable (x, y).

    ``anchor_idx`` must hold *unique* movable indices (an instance
    carries at most one pseudo-anchor, as in SimPL).  The base arrays
    are never mutated, so any number of solves can share one assembly.
    Every call factorizes.
    """
    data, bx, by = asm.data, asm.bx, asm.by
    if anchor_idx is not None and len(anchor_idx) and anchor_weight > 0.0:
        data = data.copy()
        bx = bx.copy()
        by = by.copy()
        data[asm.diag_pos[anchor_idx]] += anchor_weight
        bx[anchor_idx] += anchor_weight * anchor_x
        by[anchor_idx] += anchor_weight * anchor_y
    n = asm.n_total
    lap = sp.csc_matrix((data, asm.indices, asm.indptr), shape=(n, n))
    try:
        # The system is a symmetric diagonally-dominant Laplacian:
        # SymmetricMode (COLAMD on A+A', tiny pivot threshold) cuts
        # SuperLU fill ~20% vs the unsymmetric default, small panels
        # suit its thin supernodes, and both RHS solve in one
        # triangular sweep.
        metrics.inc("place.factorizations")
        t0 = time.perf_counter()
        with trace.span("place.factor", n=n):
            lu = spla.splu(lap, options=dict(SymmetricMode=True,
                                             DiagPivotThresh=0.001,
                                             PanelSize=1, Relax=12))
        t1 = time.perf_counter()
        metrics.add_time("place.factor_s", t1 - t0)
        with trace.span("place.back_solve", n=n):
            xy = lu.solve(np.stack([bx, by], axis=1))
        metrics.add_time("place.back_solve_s", time.perf_counter() - t1)
    except RuntimeError as exc:  # pragma: no cover - singular fallback
        raise PlacementError(f"quadratic system solve failed: {exc}") from exc
    return (np.ascontiguousarray(xy[:asm.n_movable, 0]),
            np.ascontiguousarray(xy[:asm.n_movable, 1]))


class PlacementSystem:
    """Reusable quadratic system for one (netlist, fixed, movable) split.

    Assembles the connectivity Laplacian once (whole-array over the
    :class:`NetConnectivity` arrays) and serves per-level anchored
    solves that only add the anchor diagonal and RHS.  Every solve
    factorizes, and results are bit-identical to constructing a fresh
    system per call.
    """

    def __init__(self, netlist: Netlist,
                 fixed: dict[str, tuple[float, float]], fp: Floorplan,
                 movable: list[str] | None = None,
                 conn: NetConnectivity | None = None):
        if movable is None:
            movable = [n for n in netlist.instances if n not in fixed]
        self.movable = list(movable)
        self.index = {name: i for i, name in enumerate(self.movable)}
        self.fp = fp
        self.conn = conn if conn is not None \
            else NetConnectivity.from_netlist(netlist)
        if not self.movable:
            self._asm = None
            return
        nk = self.conn.n_keys
        kid_mov = np.full(nk, -1, dtype=np.int64)
        vocab = self.conn.vocab
        get = vocab.get
        mov_kids = np.fromiter((get(name, -1) for name in self.movable),
                               dtype=np.int64, count=len(self.movable))
        has_kid = mov_kids >= 0
        kid_mov[mov_kids[has_kid]] = np.flatnonzero(has_kid)
        kid_fx = np.full(nk, np.nan)
        kid_fy = np.full(nk, np.nan)
        for key, (px, py) in fixed.items():
            kid = vocab.get(key)
            # A name in both movable and fixed counts as movable, the
            # same precedence the seed add_edge applied.
            if kid is not None and kid_mov[kid] < 0:
                kid_fx[kid] = px
                kid_fy[kid] = py
        self._asm = assemble_system(self.conn, kid_mov, kid_fx, kid_fy,
                                    len(self.movable), fp.width, fp.height)

    @property
    def n_movable(self) -> int:
        return len(self.movable)

    def solve_arrays(self, anchor_idx: np.ndarray | None = None,
                     anchor_x: np.ndarray | None = None,
                     anchor_y: np.ndarray | None = None,
                     anchor_weight: float = 0.0
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Array-level solve; positions align with ``self.movable``."""
        if self._asm is None:
            empty = np.empty(0)
            return empty, empty
        return solve_assembled(self._asm, anchor_idx, anchor_x, anchor_y,
                               anchor_weight)

    def solve(self, anchors: dict[str, tuple[float, float]] | None = None,
              anchor_weight: float = 0.0) -> dict[str, tuple[float, float]]:
        """Dict-level solve, same signature semantics as the seed
        ``quadratic_solve`` (unknown anchor names are ignored)."""
        if self._asm is None:
            return {}
        anchor_idx = anchor_x = anchor_y = None
        if anchors and anchor_weight > 0.0:
            idx, axs, ays = [], [], []
            for name, (ax, ay) in anchors.items():
                i = self.index.get(name)
                if i is None:
                    continue
                idx.append(i)
                axs.append(ax)
                ays.append(ay)
            if idx:
                anchor_idx = np.asarray(idx, dtype=np.int64)
                anchor_x = np.asarray(axs)
                anchor_y = np.asarray(ays)
        xs, ys = self.solve_arrays(anchor_idx, anchor_x, anchor_y,
                                   anchor_weight)
        return {name: (float(xs[i]), float(ys[i]))
                for name, i in self.index.items()}
