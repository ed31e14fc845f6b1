"""Placement engine benchmark — seed loops vs cached-Laplacian system.

Times the end-to-end two-tier placement (``place_design``) on the
no-MLS MAERI fabrics and writes ``BENCH_place.json`` at the repo root:

* ``seed``   — the pre-rework placer, frozen verbatim below: per-level
               Python net walks, dict-based bisection, fresh
               ``scipy.factorized`` per solve;
* ``cached`` — the shipped engine: one :class:`NetConnectivity` walk,
               one assembled sparse pattern served to every bisection
               level (``repro.place.system``), vectorized split/clamp/
               leaf layout.

Correctness gates (the script exits non-zero on any failure):

* cached bisection with ``reuse_system=True`` is **bit-identical** to
  ``reuse_system=False`` (fresh assembly per level) — the cached-vs-
  rebuild contract;
* the cached placement's HPWL stays within 2% of the seed placer's.

Speedup is additionally gated in full mode (cached ≥ 3x seed on
MAERI-128) and loosely in smoke mode — but only when more than one
core is usable; on a 1-core box the JSON still records timings while
the gate checks correctness/quality only.

Run directly::

    PYTHONPATH=src python benchmarks/bench_place.py           # both sizes
    PYTHONPATH=src python benchmarks/bench_place.py --smoke   # 16PE, CI
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.errors import PlacementError                          # noqa: E402
from repro.harness.designs import (DEFAULT_EXPERIMENT_SEED,  # noqa: E402
                                    get_benchmark)
from repro.obs.trend import usable_cores                          # noqa: E402
from repro.partition import partition_memory_on_logic            # noqa: E402
from repro.partition.tier import TIER_LOGIC, TIER_MEMORY         # noqa: E402
from repro.place import (NetConnectivity, Placement,             # noqa: E402
                         bisection_place, make_floorplan,
                         place_design, quadratic_solve)
from repro.place.legalize import legalize_macros, legalize_tier  # noqa: E402
from repro.place.placer import _pin_ports                        # noqa: E402

BENCH_JSON = REPO_ROOT / "BENCH_place.json"
TREND_JSONL = REPO_ROOT / "benchmarks" / "results" / "trend.jsonl"

#: Allowed relative HPWL delta of the cached placer vs the seed placer.
HPWL_TOL = 0.02
#: Full-mode speedup gate for the cached engine on MAERI-128.
FULL_SPEEDUP_GATE = 3.0

# --------------------------------------------------------------------------
# Frozen seed implementation (pre cached-Laplacian), kept verbatim so the
# baseline leg keeps measuring the same code forever.  Do not modernize.
# --------------------------------------------------------------------------

_CLIQUE_LIMIT = 4
_CENTER_REG = 1e-6


def _seed_quadratic_solve(netlist, fixed, fp, movable=None, anchors=None,
                          anchor_weight=0.0):
    if movable is None:
        movable = [n for n in netlist.instances if n not in fixed]
    if not movable:
        return {}
    index = {name: i for i, name in enumerate(movable)}
    n_movable = len(movable)

    rows, cols, vals = [], [], []
    diag = np.full(n_movable, _CENTER_REG, dtype=float)
    bx = np.full(n_movable, _CENTER_REG * fp.width / 2.0, dtype=float)
    by = np.full(n_movable, _CENTER_REG * fp.height / 2.0, dtype=float)

    if anchors and anchor_weight > 0.0:
        for name, (ax, ay) in anchors.items():
            i = index.get(name)
            if i is None:
                continue
            diag[i] += anchor_weight
            bx[i] += anchor_weight * ax
            by[i] += anchor_weight * ay

    def pin_key(pin):
        if pin.owner is not None:
            return pin.owner.name
        return f"port:{pin.port.name}"

    def add_edge(a_key, b_key, w):
        ia = index.get(a_key)
        ib = index.get(b_key)
        if ia is not None and ib is not None:
            diag[ia] += w
            diag[ib] += w
            rows.extend((ia, ib))
            cols.extend((ib, ia))
            vals.extend((-w, -w))
        elif ia is not None:
            pos = fixed.get(b_key)
            if pos is None:
                return
            diag[ia] += w
            bx[ia] += w * pos[0]
            by[ia] += w * pos[1]
        elif ib is not None:
            pos = fixed.get(a_key)
            if pos is None:
                return
            diag[ib] += w
            bx[ib] += w * pos[0]
            by[ib] += w * pos[1]

    star_edges = []
    n_virtual = 0
    for net in netlist.signal_nets():
        pins = net.pins()
        deg = len(pins)
        if deg < 2:
            continue
        keys = [pin_key(p) for p in pins]
        if deg <= _CLIQUE_LIMIT:
            w = 1.0 / (deg - 1)
            for i in range(deg):
                for j in range(i + 1, deg):
                    add_edge(keys[i], keys[j], w)
        else:
            w = 2.0 / deg
            star_edges.append((n_virtual, [(k, w) for k in keys]))
            n_virtual += 1

    n_total = n_movable + n_virtual
    if n_virtual:
        diag = np.concatenate([diag, np.zeros(n_virtual)])
        bx = np.concatenate([bx, np.zeros(n_virtual)])
        by = np.concatenate([by, np.zeros(n_virtual)])
        for v_idx, edges in star_edges:
            vi = n_movable + v_idx
            for key, w in edges:
                ii = index.get(key)
                if ii is not None:
                    diag[vi] += w
                    diag[ii] += w
                    rows.extend((vi, ii))
                    cols.extend((ii, vi))
                    vals.extend((-w, -w))
                else:
                    pos = fixed.get(key)
                    if pos is None:
                        continue
                    diag[vi] += w
                    bx[vi] += w * pos[0]
                    by[vi] += w * pos[1]
            if diag[vi] == 0.0:
                diag[vi] = 1.0

    lap = sp.coo_matrix(
        (np.concatenate([np.array(vals, dtype=float), diag]),
         (np.concatenate([np.array(rows, dtype=int),
                          np.arange(n_total)]),
          np.concatenate([np.array(cols, dtype=int),
                          np.arange(n_total)]))),
        shape=(n_total, n_total)).tocsc()
    solver = spla.factorized(lap)
    xs = solver(bx)
    ys = solver(by)
    return {name: (float(xs[i]), float(ys[i])) for name, i in index.items()}


@dataclass
class _SeedRegion:
    x0: float
    y0: float
    x1: float
    y1: float
    cells: list

    @property
    def width(self):
        return self.x1 - self.x0

    @property
    def height(self):
        return self.y1 - self.y0

    @property
    def center(self):
        return ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)


def _seed_split(region, pos, area):
    axis = 0 if region.width >= region.height else 1
    ordered = sorted(region.cells, key=lambda n: (pos[n][axis], n))
    total = sum(area[n] for n in ordered)
    half, acc, cut = total / 2.0, 0.0, 0
    for i, name in enumerate(ordered):
        acc += area[name]
        if acc >= half:
            cut = i + 1
            break
    cut = max(1, min(cut, len(ordered) - 1))
    first, second = ordered[:cut], ordered[cut:]
    frac = max(0.1, min(0.9, sum(area[n] for n in first) / total))
    if axis == 0:
        xm = region.x0 + frac * region.width
        return (_SeedRegion(region.x0, region.y0, xm, region.y1, first),
                _SeedRegion(xm, region.y0, region.x1, region.y1, second))
    ym = region.y0 + frac * region.height
    return (_SeedRegion(region.x0, region.y0, region.x1, ym, first),
            _SeedRegion(region.x0, ym, region.x1, region.y1, second))


def _seed_layout_leaf(region, pos):
    cells = sorted(region.cells, key=lambda n: (pos[n][1], pos[n][0], n))
    n = len(cells)
    if n == 0:
        return {}
    cols = max(1, int(math.ceil(math.sqrt(n * max(region.width, 1e-6)
                                          / max(region.height, 1e-6)))))
    rows = int(math.ceil(n / cols))
    out = {}
    for i, name in enumerate(cells):
        r, c = divmod(i, cols)
        x = region.x0 + (c + 0.5) * region.width / cols
        y = region.y0 + (r + 0.5) * region.height / max(rows, 1)
        out[name] = (x, y)
    return out


def _seed_bisection_place(netlist, fixed, fp, movable,
                          leaf_cells=24, base_anchor=0.01):
    if not movable:
        return {}
    area = {n: max(netlist.instance(n).cell.area_um2, 0.1) for n in movable}
    pos = _seed_quadratic_solve(netlist, fixed, fp, movable=movable)
    regions = [_SeedRegion(0.0, 0.0, fp.width, fp.core_height,
                           list(movable))]
    weight = base_anchor
    while max(len(r.cells) for r in regions) > leaf_cells:
        next_regions = []
        for region in regions:
            if len(region.cells) <= leaf_cells:
                next_regions.append(region)
                continue
            a, b = _seed_split(region, pos, area)
            next_regions.extend((a, b))
        regions = next_regions
        anchors = {}
        for region in regions:
            cx, cy = region.center
            for name in region.cells:
                anchors[name] = (cx, cy)
        pos = _seed_quadratic_solve(netlist, fixed, fp, movable=movable,
                                    anchors=anchors, anchor_weight=weight)
        for region in regions:
            for name in region.cells:
                x, y = pos[name]
                pos[name] = (min(max(x, region.x0), region.x1),
                             min(max(y, region.y0), region.y1))
        weight *= 2.0

    final = {}
    for region in regions:
        final.update(_seed_layout_leaf(region, pos))
    if len(final) != len(movable):
        raise PlacementError(
            f"bisection lost cells: {len(final)} != {len(movable)}")
    return final


def _seed_legalize_tier(netlist, names, positions, fp):
    if not names:
        return {}
    widths = {}
    for name in names:
        inst = netlist.instance(name)
        if inst.is_macro:
            raise PlacementError(
                f"macro {name} must go through legalize_macros")
        widths[name] = max(fp.site_width,
                           inst.cell.area_um2 / fp.row_height)
    total_width = sum(widths.values())
    capacity = fp.num_rows * fp.width
    if total_width > capacity:
        raise PlacementError(
            f"cells need {total_width:.0f}um of row space, floorplan has "
            f"{capacity:.0f}um — increase the floorplan or utilization")

    num_rows = fp.num_rows
    row_cap = fp.width
    row_used = np.zeros(num_rows)
    row_members = [[] for _ in range(num_rows)]

    by_y = sorted(names, key=lambda n: (positions[n][1], n))
    for name in by_y:
        desired_row = int(positions[name][1] / fp.row_height)
        desired_row = min(max(desired_row, 0), num_rows - 1)
        row = desired_row
        for offset in range(num_rows):
            candidates = []
            if desired_row + offset < num_rows:
                candidates.append(desired_row + offset)
            if offset > 0 and desired_row - offset >= 0:
                candidates.append(desired_row - offset)
            found = None
            for r in candidates:
                if row_used[r] + widths[name] <= row_cap:
                    found = r
                    break
            if found is not None:
                row = found
                break
        else:
            raise PlacementError(f"no row space for {name}")
        row_used[row] += widths[name]
        row_members[row].append(name)

    legal = {}
    for row_idx, members in enumerate(row_members):
        if not members:
            continue
        members.sort(key=lambda n: (positions[n][0], n))
        cursor = 0.0
        placed = []
        for name in members:
            desired_left = positions[name][0] - widths[name] / 2.0
            left = max(cursor, desired_left)
            placed.append((name, left))
            cursor = left + widths[name]
        overflow = cursor - fp.width
        if overflow > 0:
            placed = [(n, max(0.0, left - overflow)) for n, left in placed]
            cursor = 0.0
            repacked = []
            for name, left in placed:
                left = max(cursor, left)
                repacked.append((name, left))
                cursor = left + widths[name]
            placed = repacked
        y = row_idx * fp.row_height + fp.row_height / 2.0
        for name, left in placed:
            legal[name] = (left + widths[name] / 2.0, y)
    return legal


def _seed_place_design(netlist, tiers, fp=None, utilization=0.45):
    """The pre-rework ``place_design`` flow over the frozen kernels."""
    if fp is None:
        fp = make_floorplan(netlist, utilization=utilization)
    placement = Placement(netlist, tiers)
    fixed = _pin_ports(netlist, tiers, fp, placement)
    macro_names = [n for n, inst in netlist.instances.items()
                   if inst.is_macro]
    std_names = [n for n in netlist.instances
                 if n not in set(macro_names)]
    rough = _seed_quadratic_solve(netlist, fixed, fp)
    if macro_names:
        macro_pos = legalize_macros(netlist, macro_names, rough, fp)
        for name, (x, y) in macro_pos.items():
            fixed[name] = (x, y)
            placement.set_instance(name, x, y)
    spread_pos = _seed_bisection_place(netlist, fixed, fp,
                                       movable=std_names)
    for tier in (TIER_LOGIC, TIER_MEMORY):
        tier_names = [n for n in std_names
                      if tiers.of_instance(n) == tier]
        legal = _seed_legalize_tier(netlist, tier_names, spread_pos, fp)
        for name, (x, y) in legal.items():
            placement.set_instance(name, x, y)
    placement.validate()
    return placement, fp


# --------------------------------------------------------------------------
# Benchmark harness
# --------------------------------------------------------------------------

def _best_of(fn, repeats: int) -> tuple[float, object]:
    """(best seconds, last result) over *repeats* calls."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _cached_vs_rebuild_identical(netlist, tiers) -> bool:
    """Gate: serving levels from the cached system == per-level rebuild."""
    fp = make_floorplan(netlist, utilization=0.45)
    fixed = _pin_ports(netlist, tiers, fp, Placement(netlist, tiers))
    macros = [n for n, i in netlist.instances.items() if i.is_macro]
    std = [n for n, i in netlist.instances.items() if not i.is_macro]
    conn = NetConnectivity.from_netlist(netlist)
    rough = quadratic_solve(netlist, fixed, fp, conn=conn)
    fixed.update(legalize_macros(netlist, macros, rough, fp))
    cached = bisection_place(netlist, fixed, fp, movable=std, conn=conn,
                             reuse_system=True)
    rebuilt = bisection_place(netlist, fixed, fp, movable=std, conn=conn,
                              reuse_system=False)
    return cached == rebuilt


def bench_design(key: str, repeats: int) -> dict:
    spec = get_benchmark(key)
    netlist = spec.factory(spec.tech().libraries, DEFAULT_EXPERIMENT_SEED)
    tiers = partition_memory_on_logic(netlist)

    t_seed, (seed_pl, _) = _best_of(
        lambda: _seed_place_design(netlist, tiers), repeats)
    t_cached, (cached_pl, _) = _best_of(
        lambda: place_design(netlist, tiers), repeats)
    identical = _cached_vs_rebuild_identical(netlist, tiers)

    hpwl_seed = seed_pl.hpwl()
    hpwl_cached = cached_pl.hpwl()
    return {
        "design": spec.paper_name,
        "key": key,
        "instances": len(netlist.instances),
        "nets": len(netlist.nets),
        "seed_place_s": round(t_seed, 3),
        "cached_place_s": round(t_cached, 3),
        "speedup_cached_vs_seed": round(t_seed / t_cached, 2),
        "hpwl_seed": round(hpwl_seed, 2),
        "hpwl_cached": round(hpwl_cached, 2),
        "hpwl_cached_delta_pct": round(
            (hpwl_cached - hpwl_seed) / hpwl_seed * 100.0, 3),
        "cached_equals_rebuild": identical,
    }


def _gates(rows: list[dict], smoke: bool, cores: int) -> list[str]:
    failures = []
    for row in rows:
        name = row["design"]
        if not row["cached_equals_rebuild"]:
            failures.append(f"{name}: cached system != per-level rebuild")
        if row["hpwl_cached_delta_pct"] > HPWL_TOL * 100.0:
            failures.append(f"{name}: cached HPWL regressed "
                            f"{row['hpwl_cached_delta_pct']:.2f}%")
    if cores <= 1:
        # Honest single-core mode: wall-clock on a time-sliced box is
        # noise, so only correctness/quality gate above applies.
        return failures
    for row in rows:
        gate = FULL_SPEEDUP_GATE if (not smoke and "128" in row["design"]) \
            else 1.0
        if row["speedup_cached_vs_seed"] < gate:
            failures.append(
                f"{row['design']}: cached speedup "
                f"{row['speedup_cached_vs_seed']:.2f}x < {gate:.1f}x gate")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="16PE only, fewer repeats (CI gate)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per variant (best-of)")
    args = parser.parse_args(argv)

    keys = ["maeri16_hetero"] if args.smoke \
        else ["maeri16_hetero", "maeri128_hetero"]
    repeats = args.repeats or (2 if args.smoke else 4)
    cores = usable_cores()

    rows = []
    for key in keys:
        print(f"benchmarking {key} ...", flush=True)
        row = bench_design(key, repeats)
        rows.append(row)
        for field, value in row.items():
            print(f"  {field:<28}{value}")

    from repro.obs import metrics
    record = {"repeats": repeats, "smoke": args.smoke,
              "cpu_count": cores, "designs": rows,
              "metrics": metrics.snapshot()}
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {BENCH_JSON}")

    from repro.obs.trend import append_trend
    legs = {f"place.{row['key']}.{leg}": row[leg]
            for row in rows
            for leg in ("seed_place_s", "cached_place_s")}
    append_trend(TREND_JSONL, "place", legs, smoke=args.smoke,
                 meta={"cpu_count": cores, "repeats": repeats})

    failures = _gates(rows, args.smoke, cores)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
