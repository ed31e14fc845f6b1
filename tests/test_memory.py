"""Memory contracts of what a flow builds and holds.

* Training frees each minibatch's loss graph once its optimizer step
  has run: a weakref to batch *i*'s loss is dead when batch *i + 1*'s
  forward starts, in DGI pretraining and in fine-tuning (with the
  cyclic collector off, so plain reference counting must do it).  The
  fused encoder node frees its activations during its backward, so a
  second backward through it raises.
* Route trees, nodes and edges, net parasitics and placement locations
  carry no ``__dict__``, pickle as their constructor arguments and
  round-trip through the snapshot pickler unchanged.
* ``Pin.full_name`` is formatted once: the same string object on every
  call, after a netlist pickle round trip, and for a detached pin
  pickled by value without the name slot.
* A store blob pickled with the ``__dict__`` layout those classes had
  before they were slotted never unpickles into them: it is a counted
  ``store.corrupt`` miss, and the flow is recomputed.
"""

from __future__ import annotations

import copyreg
import gc
import pickle
import pickletools
import weakref

import numpy as np
import pytest

import repro.core.trainer as trainer_mod
from repro.core import (EncoderConfig, GraphTransformer, TrainConfig,
                        build_dataset, train_gnn_mls)
from repro.core.batching import pad_batch
from repro.core.dgi import DGIPretrainer
from repro.harness.designs import get_benchmark
from repro.netlist.cell import Instance
from repro.netlist.net import Pin, _new_empty
from repro.nn.tensor import Tensor
from repro.obs import metrics
from repro.place.placement import Location
from repro.route import GlobalRouter, RouteEdge, RouteTree
from repro.route.rc import NetRC
from repro.route.tree import RouteNode
from repro.service import ArtifactStore, flow_key
from repro.service.stages import run_flow_stored
from repro.snapshot import dumps_snapshot, loads_snapshot
from repro.timing import run_sta

from tests.conftest import TEST_SEED, build_small_design

#: Pin slots before ``_full_name`` joined them.
_OLD_PIN_SLOTS = ("name", "direction", "owner", "port", "net", "cap_ff")


class _DictLayout:
    """Pickles as *cls* with a plain ``__dict__`` state: the bytes an
    instance of *cls* pickled to before *cls* had ``__slots__``."""

    def __init__(self, cls, state: dict):
        self.cls = cls
        self.state = state

    @property
    def __class__(self):
        # The pickler checks that NEWOBJ's class is the object's own.
        return self.cls

    def __reduce_ex__(self, protocol):
        return (copyreg.__newobj__, (self.cls,), self.state)


class _OldPin:
    """Pickles as a detached :class:`Pin` by value, with the slot state
    a pin had before ``_full_name`` existed."""

    def __init__(self, pin: Pin):
        self.state = {slot: getattr(pin, slot) for slot in _OLD_PIN_SLOTS}

    def __reduce__(self):
        return (_new_empty, (Pin,), self.state)


@pytest.fixture(scope="module")
def dataset(hetero_tech):
    design = build_small_design(hetero_tech)
    router = GlobalRouter(design)
    routing = router.route_all()
    return build_dataset(design, router, routing, run_sta(design),
                         num_paths=80, num_labeled=30)


@pytest.fixture
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    yield
    (gc.enable if enabled else gc.disable)()


def _track_losses(monkeypatch, owner, name: str) -> list[int]:
    """Wrap the loss function *owner.name*: each call first records how
    many earlier losses are still alive, then keeps a weakref to the
    loss it returns.  Returns the list of those counts."""
    real = getattr(owner, name)
    refs: list[weakref.ref] = []
    alive: list[int] = []

    def tracked(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        loss = real(*args, **kwargs)
        refs.append(weakref.ref(loss))
        return loss

    monkeypatch.setattr(owner, name, tracked)
    return alive


class TestTrainingGraphs:
    CONFIG = TrainConfig(dgi_epochs=2, finetune_epochs=2, batch_size=4)

    def test_dgi_batch_graph_dies_before_next_forward(
            self, dataset, monkeypatch, collector_off):
        alive = _track_losses(monkeypatch, DGIPretrainer, "loss_for_batch")
        train_gnn_mls(dataset, TEST_SEED, self.CONFIG)
        assert len(alive) > 2
        assert alive == [0] * len(alive)

    def test_finetune_batch_graph_dies_before_next_forward(
            self, dataset, monkeypatch, collector_off):
        alive = _track_losses(monkeypatch, trainer_mod,
                              "finetune_loss_for_batch")
        train_gnn_mls(dataset, TEST_SEED, self.CONFIG)
        assert len(alive) > 2
        assert alive == [0] * len(alive)

    def test_fused_node_backpropagates_once(self):
        config = EncoderConfig(in_dim=7, d_model=8, heads=2, layers=2,
                               ff_mult=2, max_len=64)
        model = GraphTransformer(config, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        batch, mask = pad_batch([rng.normal(size=(n, 7)) for n in (5, 3)])
        loss = model(Tensor(batch), mask).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="already ran"):
            loss.backward()


def _node_fields(node: RouteNode) -> tuple:
    pin = None if node.pin is None else node.pin.full_name
    return (node.idx, node.x, node.y, node.tier, pin)


class TestSlottedRouteObjects:
    def test_no_instance_dict(self, routed_small_design):
        routing = routed_small_design.routing
        name, tree = next(iter(routing.trees.items()))
        objects = [tree, tree.nodes[0], tree.edges[0], routing.rc[name],
                   routed_small_design.placement.of_pin(
                       tree.nodes[0].pin)]
        for obj in objects:
            assert not hasattr(obj, "__dict__"), type(obj).__name__
            with pytest.raises(AttributeError):
                obj.unknown_field = 1

    def test_snapshot_round_trip(self, routed_small_design):
        routing = routed_small_design.routing
        placement = routed_small_design.placement
        names = sorted(routing.trees)[:25]
        trees = [routing.trees[n] for n in names]
        rcs = [routing.rc[n] for n in names]
        locations = [placement.of_pin(t.nodes[0].pin) for t in trees]
        back_trees, back_rcs, back_locations = loads_snapshot(
            dumps_snapshot((trees, rcs, locations)))
        for tree, back in zip(trees, back_trees):
            assert type(back) is RouteTree
            assert back.net_name == tree.net_name
            assert back.edges == tree.edges
            assert [_node_fields(n) for n in back.nodes] \
                == [_node_fields(n) for n in tree.nodes]
        assert back_rcs == rcs
        assert all(type(rc) is NetRC for rc in back_rcs)
        assert back_locations == locations
        assert all(type(loc) is Location for loc in back_locations)

    def test_hand_built_round_trip(self):
        tree = RouteTree("n")
        tree.add_node(0.0, 0.0, 0)
        tree.add_node(12.5, 3.0, 1)
        tree.add_edge(RouteEdge(0, 1, 15.5, tier=1, pair=2, via_hops=3,
                                n_f2f=2, shared=True, escape_um=5.0))
        rc = NetRC("n", 1.0, 2.0, 3.0, 4.0, {"u1/A": 5.0})
        loc = Location(1.5, -2.0, 1)
        back_tree, back_rc, back_loc = loads_snapshot(
            dumps_snapshot((tree, rc, loc)))
        assert back_tree.edges == tree.edges
        assert back_tree.nodes == tree.nodes
        assert back_rc == rc
        assert back_loc == loc

    def test_pickles_as_constructor_arguments(self):
        """No ``(None, {slot: value})`` state per object: a stored
        report would build and memoize a dict and a tuple for each."""
        tree = RouteTree("n")
        tree.add_node(0.0, 0.0, 0)
        tree.add_node(3.0, 4.0, 0)
        tree.add_edge(RouteEdge(0, 1, 7.0, tier=0, pair=0))
        payload = dumps_snapshot((tree, NetRC("n", 1.0, 2.0, 3.0, 4.0),
                                  Location(0.0, 1.0, 0)))
        ops = {op.name for op, _arg, _pos in pickletools.genops(payload)}
        assert "BUILD" not in ops


class TestPinName:
    def test_one_string_per_pin(self, routed_small_design):
        netlist = routed_small_design.netlist
        inst = next(iter(netlist.instances.values()))
        port = next(iter(netlist.ports.values()))
        for pin in list(inst.pins.values()) + [port.pin]:
            assert pin.full_name is pin.full_name
        assert port.pin.full_name == f"port:{port.name}"

    def test_survives_netlist_pickle(self, routed_small_design):
        netlist = routed_small_design.netlist
        before = [pin.full_name for inst in netlist.instances.values()
                  for pin in inst.pins.values()]
        back = loads_snapshot(dumps_snapshot(netlist))
        pins = [pin for inst in back.instances.values()
                for pin in inst.pins.values()]
        assert [pin.full_name for pin in pins] == before
        assert all(pin.full_name is pin.full_name for pin in pins)

    def test_detached_pin_pickled_without_the_slot(self, hetero_tech):
        inst = Instance("u_detached",
                        hetero_tech.libraries["logic"].get("NAND2"))
        pin = inst.pins["A"]
        back = pickle.loads(pickle.dumps(_OldPin(pin)))
        assert type(back) is Pin
        assert back.full_name == "u_detached/A"
        assert back.full_name is back.full_name
        # And a detached pin pickled with the slot, after naming it.
        name = pin.full_name
        again = pickle.loads(pickle.dumps(pin))
        assert again.full_name == name


def _dict_layouts() -> list[_DictLayout]:
    return [
        _DictLayout(RouteNode, {"idx": 0, "x": 1.0, "y": 2.0, "tier": 0,
                                "pin": None}),
        _DictLayout(RouteEdge, {"parent": 0, "child": 1, "length": 4.0,
                                "tier": 0, "pair": 1, "via_hops": 4,
                                "n_f2f": 0, "shared": False,
                                "overflowed": False, "escape_um": 0.0}),
        _DictLayout(RouteTree, {"net_name": "n", "nodes": [],
                                "edges": []}),
        _DictLayout(NetRC, {"net_name": "n", "wire_cap_ff": 1.0,
                            "wire_res_ohm": 2.0, "load_ff": 3.0,
                            "wirelength_um": 4.0, "sink_delay_ps": {}}),
        _DictLayout(Location, {"x": 1.0, "y": 2.0, "tier": 0}),
    ]


class TestDictLayoutBlobs:
    @pytest.mark.parametrize("layout", _dict_layouts(),
                             ids=lambda layout: layout.cls.__name__)
    def test_dict_layout_pickle_fails_loudly(self, layout):
        with pytest.raises(AttributeError, match="__dict__"):
            loads_snapshot(dumps_snapshot(layout))

    def test_dict_layout_report_blob_is_a_counted_miss(self, tmp_path):
        spec = get_benchmark("maeri16_hetero")
        config = spec.flow_config("none")
        store = ArtifactStore(tmp_path / "store")
        store.put(flow_key(spec.factory, spec.tech(), 7, config),
                  {"trees": _dict_layouts()})
        corrupt = metrics.counter("store.corrupt")
        computes = metrics.counter("service.flow_computes")
        report, _summary, cached = run_flow_stored(
            spec.factory, spec.tech(), 7, config, store)
        assert not cached
        assert metrics.counter("store.corrupt") == corrupt + 1
        assert metrics.counter("service.flow_computes") == computes + 1
        fresh, _summary, _cached = run_flow_stored(
            spec.factory, spec.tech(), 7, config,
            ArtifactStore(tmp_path / "fresh"))
        assert report.result_row() == fresh.result_row()
