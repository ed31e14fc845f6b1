"""Whole-track congestion grid against the float32 reference grid.

:class:`repro.route.grid.CongestionGrid` keeps demand as int lists and
answers ``path_full`` from an int sum and a threshold table;
``tests/grid_oracle.py`` is the float32 grid it replaced.  Every
snapshot byte, every load and every "full" answer must agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError
from repro.harness.designs import get_benchmark
from repro.place.floorplan import Floorplan
from repro.route import CongestionGrid, RouteConfig

from tests.grid_oracle import Float32CongestionGrid

CFG = RouteConfig()


def _pair(tech, fp: Floorplan, **overrides):
    kwargs = dict(gcell_um=CFG.gcell_um, track_util=CFG.track_util,
                  pdn_reserved=CFG.pdn_reserved)
    kwargs.update(overrides)
    return (CongestionGrid(fp, tech.stacks, tech.f2f, **kwargs),
            Float32CongestionGrid(fp, tech.stacks, tech.f2f, **kwargs))


@pytest.fixture(scope="module")
def techs():
    return {key: get_benchmark(key).tech()
            for key in ("maeri128_hetero", "a7_hetero")}


# -- random add/release sequences ------------------------------------------

FP = Floorplan(width=30.0, height=20.0)        # 6 x 4 gcells
CELLS = 24

_path_op = st.tuples(st.just("path"), st.integers(0, 1), st.integers(0, 3),
                     st.lists(st.integers(0, CELLS - 1), min_size=1,
                              max_size=8),
                     st.integers(-3, 3))
_f2f_op = st.tuples(st.just("f2f"), st.integers(0, CELLS - 1),
                    st.integers(-4, 4))


def _assert_same(new, ref) -> None:
    for tier in range(2):
        for pair in range(new.num_pairs(tier)):
            assert new.usage[tier][pair].tobytes() \
                == ref.usage[tier][pair].tobytes()
    assert new.f2f_usage.tobytes() == ref.f2f_usage.tobytes()
    assert new.summary() == ref.summary()


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(st.one_of(_path_op, _f2f_op), max_size=40),
       probe=st.lists(st.integers(0, CELLS - 1), min_size=1, max_size=10),
       design=st.sampled_from(["maeri128_hetero", "a7_hetero"]))
def test_add_release_sequences_match_float32(techs, ops, probe, design):
    new, ref = _pair(techs[design], FP)
    for op in ops:
        if op[0] == "path":
            _, tier, pair, cells, delta = op
            pair %= new.num_pairs(tier)
            new.add_path(tier, pair, cells, delta)
            ref.add_path(tier, pair, cells, float(delta))
        else:
            _, cell, delta = op
            new.add_f2f(cell, delta)
            ref.add_f2f(cell, float(delta))
    _assert_same(new, ref)
    for tier in range(2):
        for pair in range(new.num_pairs(tier)):
            got = new.path_load(tier, pair, probe)
            want = ref.path_load(tier, pair, probe)
            assert type(got) is type(want) and got == want
            assert new.path_full(tier, pair, probe) == (want >= 1.0)
    for cell in probe:
        assert new.f2f_load(cell) == ref.f2f_load(cell)
    assert new.in_use() == any(plane.any() for plane
                               in [*sum(ref.usage, []), ref.f2f_usage])


def test_release_clamps_at_zero(techs):
    new, ref = _pair(techs["a7_hetero"], FP)
    for grid, one in ((new, 1), (ref, 1.0)):
        grid.add_path(0, 1, [3, 4, 4], one)
        grid.add_path(0, 1, [4, 5, 3, 4], -2 * one)
        grid.add_f2f(7, 2 * one)
        grid.add_f2f(7, -5 * one)
    _assert_same(new, ref)
    assert not new.in_use()


# -- path_full == (path_load >= 1.0) at every real capacity ---------------

@pytest.mark.parametrize("design", ["maeri128_hetero", "a7_hetero"])
def test_path_full_is_float32_load_at_least_one(techs, design):
    """For every (tier, pair) capacity of the stack, every path length
    1..nx+ny (plus lengths past the threshold table) and every total
    within 3 tracks of cap * n.  The 50 x 100 gcell floorplan is wider
    and taller than the placed MAERI-128 (38 x 50) and A7 (16 x 93)
    grids."""
    fp = Floorplan(width=250.0, height=500.0)
    new, ref = _pair(techs[design], fp)
    a, b = 0, 1
    longest = new.nx + new.ny
    for tier in range(2):
        for pair in range(new.num_pairs(tier)):
            cap = new.capacity[tier][pair]
            for n in [*range(1, longest + 1), longest + 7]:
                mid = int(round(cap * n))
                for total in range(max(0, mid - 3), mid + 4):
                    # n cells summing to *total*: n - r copies of a
                    # gcell holding q tracks and r of one holding q + 1.
                    q, r = divmod(total, n)
                    cells = [a] * (n - r) + [b] * r
                    for grid in (new, ref):
                        grid.add_path(tier, pair, [a], q)
                        grid.add_path(tier, pair, [b], q + 1)
                    want = ref.path_load(tier, pair, cells)
                    assert new.path_load(tier, pair, cells) == want
                    assert new.path_full(tier, pair, cells) \
                        == (want >= 1.0), (cap, n, total)
                    for grid in (new, ref):
                        grid.add_path(tier, pair, [a], -q)
                        grid.add_path(tier, pair, [b], -(q + 1))


def test_float32_rounding_moves_the_threshold():
    """A capacity whose cap * n is not a float32 gets the threshold of
    the float32 expression, not of the real quotient: 17 tracks over
    one gcell of capacity 17.0000001 are (just) under capacity, but
    the float32 load reads 1.0."""
    from repro.route.grid import _full_thresholds, _load
    cap = 17.0000001
    table = _full_thresholds(cap, 6)
    assert 17 / cap < 1.0 and _load(17, cap, 1) >= 1.0
    assert table[1] == 17
    for n in range(1, 7):
        t = table[n]
        assert _load(t, cap, n) >= 1.0 > _load(t - 1, cap, n)


# -- whole tracks and read-only snapshots ----------------------------------

def test_fractional_delta_refused(techs):
    new, _ = _pair(techs["a7_hetero"], FP)
    for bad in (0.5, -1.25, float("nan"), float("inf")):
        with pytest.raises(RoutingError, match="whole tracks"):
            new.add_path(0, 0, [1, 2], bad)
        with pytest.raises(RoutingError, match="whole tracks"):
            new.add_f2f(1, bad)
    new.add_path(0, 0, [1, 2], 2.0)          # whole-valued floats are fine
    new.add_f2f(1, np.float32(3.0))
    assert new.usage[0][0].reshape(-1)[1] == 2.0
    assert new.f2f_usage.reshape(-1)[1] == 3.0


def test_snapshots_are_read_only_float32(techs):
    new, _ = _pair(techs["a7_hetero"], FP)
    new.add_path(1, 2, [5], 4)
    plane = new.usage[1][2]
    assert plane.dtype == np.float32 and plane.shape == (new.nx, new.ny)
    with pytest.raises(ValueError):
        plane[0, 0] = 1.0
    with pytest.raises(ValueError):
        new.f2f_usage[0, 0] = 1.0
    assert new.path_load(1, 2, [5]) == np.float32(4) \
        / new.capacity[1][2]
