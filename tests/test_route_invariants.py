"""Routing-invariant suite: locks router semantics bit-for-bit.

Three families of invariants of the serial router:

* **Conservation** — committing then releasing every net leaves every
  congestion array exactly zero, so ``_apply_tree_usage`` and the
  commit-time updates inside ``_normal_edge``/``_try_shared_edge`` are
  perfectly symmetric (shared-edge vs ``n_f2f`` bookkeeping included).
* **Probe purity** — ``probe_net`` restores the grid, the trees and
  the parasitics byte-exactly, making its docstring promise an
  enforced contract.
* **Golden regression** — ``tests/data/golden_routing.json`` pins
  ``RoutingResult.stats()`` and per-net (wirelength, shared_edges,
  n_f2f) for two seeded designs; routing must reproduce it exactly.

Regenerate the golden fixture (only after an *intentional* router
semantics change) with::

    PYTHONPATH=src:. python -c \
        "from tests.test_route_invariants import regenerate; regenerate()"
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.mls.oracle import candidate_nets
from repro.parallel import dumps_snapshot
from repro.route import GlobalRouter

from tests.conftest import build_small_design

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_routing.json"

#: Every 5th candidate net goes MLS — enough shared trunks to exercise
#: the F2F bookkeeping.
MLS_EVERY = 5

#: The two golden designs: (key, logic node, memory node).
GOLDEN_DESIGNS = (
    ("maeri16_hetero", "16nm", "28nm"),
    ("maeri16_homo", "28nm", "28nm"),
)


def _tech_for(key: str):
    from repro.design import TechSetup
    _, logic, memory = next(d for d in GOLDEN_DESIGNS if d[0] == key)
    return TechSetup.build(logic, memory, 6)


def _mls_selection(design) -> frozenset:
    names = sorted(net.name for net in candidate_nets(design))
    return frozenset(names[::MLS_EVERY])


def _route_golden(key: str):
    """Build + route one golden design; returns (design, result)."""
    design = build_small_design(_tech_for(key), routed=False)
    router = GlobalRouter(design)
    result = router.route_all(mls_nets=_mls_selection(design))
    return design, router, result


def _golden_record(result) -> dict:
    return {
        "stats": result.stats(),
        "nets": {name: [tree.wirelength(), tree.num_shared_edges(),
                        tree.f2f_count()]
                 for name, tree in result.trees.items()},
    }


def regenerate() -> None:
    """Rewrite the golden fixture from the current (serial) router."""
    payload = {key: _golden_record(_route_golden(key)[2])
               for key, _, _ in GOLDEN_DESIGNS}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, sort_keys=True,
                                      separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN_PATH}")


def _grid_planes(grid) -> list[np.ndarray]:
    return [plane for tier in grid.usage for plane in tier] \
        + [grid.f2f_usage]


# -- conservation -------------------------------------------------------------


class TestConservation:
    """Commit/release symmetry of every grid resource."""

    @pytest.fixture(scope="class")
    def routed(self, hetero_tech):
        design = build_small_design(hetero_tech, routed=False)
        router = GlobalRouter(design)
        result = router.route_all(mls_nets=_mls_selection(design))
        return design, router, result

    def test_unroute_everything_zeroes_the_grid(self, routed):
        design, router, result = routed
        assert any(plane.any() for plane in _grid_planes(router.grid))
        for net in list(design.netlist.signal_nets()):
            router.unroute_net(result, net)
        assert not result.trees and not result.rc
        for plane in _grid_planes(router.grid):
            assert not plane.any(), "usage survived a full unroute"


# -- probe purity -------------------------------------------------------------


class TestProbePurity:
    """probe_net leaves no trace: grid, trees and RC byte-identical."""

    def test_probe_every_net_is_pure(self, hetero_tech):
        design = build_small_design(hetero_tech, routed=False)
        router = GlobalRouter(design)
        result = router.route_all(mls_nets=_mls_selection(design))
        before_planes = [plane.copy()
                         for plane in _grid_planes(router.grid)]
        before_trees = dict(result.trees)
        before_rc = dumps_snapshot(result.rc)
        for net in design.netlist.signal_nets():
            rc_off, rc_on, applied = router.probe_net(result, net)
            assert rc_off.net_name == net.name
            assert rc_on.net_name == net.name
            assert isinstance(applied, bool)
        for plane, saved in zip(_grid_planes(router.grid), before_planes):
            assert np.array_equal(plane, saved), "probe mutated the grid"
        assert result.trees == before_trees  # same objects, same order
        assert all(result.trees[k] is before_trees[k]
                   for k in before_trees)
        assert dumps_snapshot(result.rc) == before_rc


# -- golden regression --------------------------------------------------------


def _load_golden() -> dict:
    assert GOLDEN_PATH.exists(), \
        f"{GOLDEN_PATH} missing — run tests/test_route_invariants.py " \
        f"regenerate()"
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenRouting:
    """Two seeded designs route to the committed fixture, exactly."""

    @pytest.mark.parametrize("key", [d[0] for d in GOLDEN_DESIGNS])
    def test_serial_matches_golden(self, key):
        golden = _load_golden()
        _, _, result = _route_golden(key)
        got = json.loads(json.dumps(_golden_record(result)))
        assert got["stats"] == golden[key]["stats"]
        assert got["nets"] == golden[key]["nets"]
