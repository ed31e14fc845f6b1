"""Netlist data-model tests: invariants, surgery, traversal."""

import pytest

from repro.errors import NetlistError
from repro.netlist import Netlist, NetlistBuilder
from repro.tech import NODE_28NM, build_library

LIB = build_library(NODE_28NM)


def small_netlist() -> Netlist:
    nl = Netlist("t")
    a = nl.add_port("a", "in")
    b = nl.add_port("b", "in")
    y = nl.add_port("y", "out")
    na = nl.add_net("na")
    nb = nl.add_net("nb")
    ny = nl.add_net("ny")
    na.attach(a.pin)
    nb.attach(b.pin)
    g = nl.add_instance("g0", LIB.get("NAND2"))
    na.attach(g.pin("A"))
    nb.attach(g.pin("B"))
    ny.attach(g.output_pin)
    ny.attach(y.pin)
    return nl


class TestConstruction:
    def test_valid_small_netlist(self):
        small_netlist().validate()

    def test_duplicate_instance_rejected(self):
        nl = small_netlist()
        with pytest.raises(NetlistError, match="duplicate instance"):
            nl.add_instance("g0", LIB.get("INV"))

    def test_duplicate_net_rejected(self):
        nl = small_netlist()
        with pytest.raises(NetlistError, match="duplicate net"):
            nl.add_net("na")

    def test_duplicate_port_rejected(self):
        nl = small_netlist()
        with pytest.raises(NetlistError, match="duplicate port"):
            nl.add_port("a", "in")

    def test_second_driver_rejected(self):
        nl = small_netlist()
        inv = nl.add_instance("i0", LIB.get("INV"))
        nl.net("na").attach(inv.pin("A"))
        with pytest.raises(NetlistError, match="second driver"):
            nl.net("ny").attach(inv.output_pin)

    def test_double_attach_rejected(self):
        nl = small_netlist()
        with pytest.raises(NetlistError, match="already on net"):
            nl.net("nb").attach(nl.instance("g0").pin("A"))

    def test_unknown_lookups(self):
        nl = small_netlist()
        with pytest.raises(NetlistError):
            nl.instance("nope")
        with pytest.raises(NetlistError):
            nl.net("nope")
        with pytest.raises(NetlistError):
            nl.port("nope")
        with pytest.raises(NetlistError):
            nl.instance("g0").pin("Z")

    def test_fresh_name_unique(self):
        nl = small_netlist()
        names = {nl.fresh_name("x") for _ in range(50)}
        assert len(names) == 50


class TestValidation:
    def test_undriven_net_fails(self):
        nl = small_netlist()
        dangling = nl.add_net("dangle")
        inv = nl.add_instance("i0", LIB.get("INV"))
        dangling.attach(inv.pin("A"))
        out = nl.add_net("iout")
        out.attach(inv.output_pin)
        out.attach(nl.add_port("y2", "out").pin)
        with pytest.raises(NetlistError, match="no driver"):
            nl.validate()

    def test_sinkless_net_fails(self):
        nl = small_netlist()
        inv = nl.add_instance("i0", LIB.get("INV"))
        nl.net("na").attach(inv.pin("A"))
        lonely = nl.add_net("lonely")
        lonely.attach(inv.output_pin)
        with pytest.raises(NetlistError, match="no sinks"):
            nl.validate()

    def test_clock_pin_on_signal_net_fails(self):
        nl = small_netlist()
        ff = nl.add_instance("f0", LIB.get("DFF"))
        nl.net("na").attach(ff.pin("D"))
        nl.net("nb").attach(ff.clock_pin)      # nb is not a clock net
        q = nl.add_net("q")
        q.attach(ff.output_pin)
        q.attach(nl.add_port("q_out", "out").pin)
        with pytest.raises(NetlistError, match="non-clock net"):
            nl.validate()


class TestSurgery:
    def test_split_net_at_sinks(self):
        nl = small_netlist()
        net = nl.net("ny")
        sink = net.sinks[0]
        new = nl.split_net_at_sinks(net, [sink])
        assert sink.net is new
        assert new.driver is None
        assert not net.sinks

    def test_split_rejects_foreign_pin(self):
        nl = small_netlist()
        with pytest.raises(NetlistError, match="not a sink"):
            nl.split_net_at_sinks(nl.net("ny"),
                                  [nl.instance("g0").pin("A")])

    def test_swap_cell_dff_to_sdff(self):
        builder = NetlistBuilder("s", {"logic": LIB})
        clk = builder.clock_net()
        clk.attach(builder.netlist.add_port("ck", "in").pin)
        d = builder.input("d")
        q = builder.flop(d, clk)
        builder.output("q", q)
        nl = builder.done()
        ff = next(iter(nl.sequential_instances()))
        nl.swap_cell(ff, LIB.get("SDFF"))
        assert ff.cell.name == "SDFF"
        assert ff.pin("D").net is not None          # connection kept
        assert ff.pin("SI").net is None             # new pin, unconnected
        assert ff.output_pin.net is not None

    def test_swap_cell_rejects_lost_connected_pin(self):
        nl = small_netlist()
        gate = nl.instance("g0")
        with pytest.raises(NetlistError, match="no counterpart"):
            nl.swap_cell(gate, LIB.get("INV"))      # B is connected


class TestTraversal:
    def test_topological_order_respects_dependencies(self):
        nl = small_netlist()
        inv = nl.add_instance("i0", LIB.get("INV"))
        nl.net("ny").attach(inv.pin("A"))
        iout = nl.add_net("iout")
        iout.attach(inv.output_pin)
        iout.attach(nl.add_port("y2", "out").pin)
        order = [i.name for i in nl.topological_order()]
        assert order.index("g0") < order.index("i0")

    def test_loop_detected(self):
        nl = Netlist("loop")
        a = nl.add_instance("a", LIB.get("INV"))
        b = nl.add_instance("b", LIB.get("INV"))
        n1 = nl.add_net("n1")
        n2 = nl.add_net("n2")
        n1.attach(a.output_pin)
        n1.attach(b.pin("A"))
        n2.attach(b.output_pin)
        n2.attach(a.pin("A"))
        with pytest.raises(NetlistError, match="loop"):
            nl.topological_order()

    def test_stats(self):
        nl = small_netlist()
        stats = nl.stats()
        assert stats["instances"] == 1
        assert stats["nets"] == 3
        assert stats["ports"] == 3
        assert stats["max_fanout"] == 1

    def test_net_properties(self):
        nl = small_netlist()
        net = nl.net("na")
        assert net.degree == 2
        assert net.fanout == 1
        assert net.sink_cap_ff() > 0

    def test_total_cell_area(self):
        nl = small_netlist()
        assert nl.total_cell_area() == pytest.approx(
            LIB.get("NAND2").area_um2)


class TestBuilder:
    def test_gate_wrong_arity(self, tiny_builder):
        a = tiny_builder.input("a")
        with pytest.raises(NetlistError, match="takes 2 inputs"):
            tiny_builder.gate("NAND2", a)

    def test_region_switch(self, tiny_builder):
        assert tiny_builder.current_region == "logic"
        with tiny_builder.region("memory"):
            assert tiny_builder.current_region == "memory"
            inst = tiny_builder.instance("INV")
            assert inst.attrs["region"] == "memory"
        assert tiny_builder.current_region == "logic"

    def test_unknown_region(self, tiny_builder):
        with pytest.raises(NetlistError, match="unknown region"):
            with tiny_builder.region("analog"):
                pass

    def test_module_prefixes_names(self, tiny_builder):
        with tiny_builder.module("core0"):
            inst = tiny_builder.instance("INV")
        assert inst.name.startswith("core0/")
        assert inst.attrs["module"] == "core0"

    def test_buffer_tree_leaf_count(self, tiny_builder):
        a = tiny_builder.input("a")
        for want in (1, 2, 5, 16, 23):
            leaves = tiny_builder.buffer_tree(a, want, hint=f"bt{want}")
            assert len(leaves) == want
            # every leaf is a distinct net
            assert len({l.name for l in leaves}) == want

    def test_register_word(self, tiny_builder):
        clk = tiny_builder.clock_net()
        clk.attach(tiny_builder.netlist.add_port("ck", "in").pin)
        bits = [tiny_builder.input(f"d{i}") for i in range(4)]
        qs = tiny_builder.register_word(bits, clk)
        assert len(qs) == 4
        assert len(tiny_builder.netlist.sequential_instances()) == 4


# ---------------------------------------------------------------------------
# Struct-of-arrays core + flat serialization (ISSUE 6)
# ---------------------------------------------------------------------------

import pickle
import sys

from hypothesis import given, settings, strategies as st

from repro.netlist.soa import NetlistSoA, pack_names, unpack_names
from tests.golden_util import netlist_digest


def roundtrip(nl: Netlist) -> Netlist:
    return pickle.loads(pickle.dumps(nl, protocol=pickle.HIGHEST_PROTOCOL))


class TestFlatSerialization:
    def test_pickle_roundtrip_exact(self):
        nl = small_netlist()
        assert netlist_digest(roundtrip(nl)) == netlist_digest(nl)

    def test_roundtrip_after_surgery(self):
        """split_net_at_sinks + swap_cell state survives exactly."""
        builder = NetlistBuilder("s", {"logic": LIB})
        clk = builder.clock_net()
        clk.attach(builder.netlist.add_port("ck", "in").pin)
        d = builder.input("d")
        q = builder.flop(d, clk)
        builder.output("q", q)
        nl = builder.netlist
        ff = next(iter(nl.sequential_instances()))
        nl.swap_cell(ff, LIB.get("SDFF"))
        nl.split_net_at_sinks(nl.net(d.name), [ff.pin("D")])
        assert netlist_digest(roundtrip(nl)) == netlist_digest(nl)

    def test_fresh_name_counter_survives(self):
        nl = small_netlist()
        nl.fresh_name("x")
        nl.fresh_name("x")
        restored = roundtrip(nl)
        assert restored.fresh_name("y") == nl.fresh_name("y")

    def test_soa_views(self):
        nl = small_netlist()
        flat = nl.to_flat()
        assert flat.num_instances == 1
        assert flat.num_nets == 3

    def test_identity_consistency_in_shared_payload(self):
        """Pins/nets pickled next to their netlist resolve INTO it."""
        nl = small_netlist()
        gate = nl.instance("g0")
        pin = gate.pin("A")
        net = nl.net("ny")
        nl2, gate2, pin2, net2 = pickle.loads(
            pickle.dumps((nl, gate, pin, net)))
        assert gate2 is nl2.instances["g0"]
        assert pin2 is gate2.pins["A"]
        assert pin2.net is nl2.nets["na"]
        assert net2 is nl2.nets["ny"]
        assert net2.driver is gate2.output_pin

    def test_detached_fragments_still_pickle(self):
        from repro.netlist import Instance, Net
        inst = Instance("solo", LIB.get("NAND2"))
        net = Net("wire")
        net.attach(inst.output_pin)
        inst2, net2 = pickle.loads(pickle.dumps((inst, net)))
        assert inst2.name == "solo" and inst2._netlist is None
        assert net2.driver is inst2.output_pin

    def test_recursion_limit_independence(self):
        """A deep serial chain pickles at a tiny recursion limit.

        The old object-graph pickle recursed once per chain stage; the
        flat encoder must not care about depth at all.
        """
        builder = NetlistBuilder("deep", {"logic": LIB})
        net = builder.input("start")
        for _ in range(4000):
            net = builder.gate("INV", net)
        builder.output("end", net)
        nl = builder.done()
        old = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(200)
            restored = roundtrip(nl)
        finally:
            sys.setrecursionlimit(old)
        assert netlist_digest(restored) == netlist_digest(nl)

    def test_pack_names_roundtrip(self):
        names = [f"core{i}/u_{i}" for i in range(100)]
        assert unpack_names(pack_names(names)) == names
        assert unpack_names(pack_names([])) == []
        weird = ["a\nb", "c"]                       # separator collision
        assert unpack_names(pack_names(weird)) == weird

    def test_foreign_pin_rejected(self):
        nl = small_netlist()
        other = small_netlist()
        # Graft a pin from another netlist behind the API's back.
        foreign = other.instance("g0").pin("A")
        foreign.net = None
        nl.net("ny").attach(foreign)
        with pytest.raises(NetlistError, match="does not belong"):
            nl.to_flat()


# -- hypothesis: random builder programs round-trip exactly -----------------

_COMB = ["INV", "BUF", "NAND2", "NOR2", "XOR2", "AOI21", "MUX2", "AND3"]

_op = st.one_of(
    st.tuples(st.just("input")),
    st.tuples(st.just("gate"), st.sampled_from(_COMB),
              st.lists(st.integers(0, 10 ** 6), min_size=3, max_size=3)),
    st.tuples(st.just("flop"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("region")),
    st.tuples(st.just("module"), st.sampled_from(["a", "b/c", "x1"])),
    st.tuples(st.just("split"), st.integers(0, 10 ** 6)),
)


def _build_program(ops) -> Netlist:
    """Interpret one random op list as a netlist-builder program.

    Net choices index into the currently-available net list modulo its
    size, so every program is valid by construction; a final pass adds
    output ports for dangling nets (making validate() pass) and one
    split_net_at_sinks per requested split exercises the surgery path.
    """
    from repro.tech import NODE_16NM
    libs = {"logic": build_library(NODE_16NM),
            "memory": build_library(NODE_28NM)}
    builder = NetlistBuilder("prog", libs)
    clk = builder.clock_net()
    clk.attach(builder.netlist.add_port("ck", "in").pin)
    nets = [builder.input("seed0"), builder.input("seed1")]
    regions = ["logic", "memory"]
    region = 0
    splits = []
    for op in ops:
        if op[0] == "input":
            nets.append(builder.input(f"in{len(nets)}"))
        elif op[0] == "gate":
            _, cell, picks = op
            arity = len(libs[regions[region]].get(cell).inputs)
            ins = [nets[p % len(nets)] for p in picks[:arity]]
            with builder.region(regions[region]):
                nets.append(builder.gate(cell, *ins))
        elif op[0] == "flop":
            with builder.region("logic"):
                nets.append(builder.flop(nets[op[1] % len(nets)], clk))
        elif op[0] == "region":
            region = 1 - region
        elif op[0] == "module":
            builder._module_stack.append(op[1])
        elif op[0] == "split":
            splits.append(op[1])
    netlist = builder.netlist
    for idx, net in enumerate(nets):
        if not net.sinks:
            builder.output(f"out{idx}", net)
    for pick in splits:
        candidates = [n for n in netlist.signal_nets() if len(n.sinks) >= 2]
        if candidates:
            net = candidates[pick % len(candidates)]
            netlist.split_net_at_sinks(net, [net.sinks[pick % len(net.sinks)]])
    return netlist


class TestFlatSerializationProperties:
    @given(st.lists(_op, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_random_builder_program_roundtrips(self, ops):
        nl = _build_program(ops)
        restored = roundtrip(nl)
        assert netlist_digest(restored) == netlist_digest(nl)
        # Iteration orders, not just content digests:
        assert list(restored.instances) == list(nl.instances)
        assert list(restored.nets) == list(nl.nets)
        assert list(restored.ports) == list(nl.ports)
        for a, b in zip(restored.instances.values(), nl.instances.values()):
            assert list(a.pins) == list(b.pins)
            # Cells pickle by value (they cross process boundaries) but
            # instances of one cell type still share a single object.
            assert a.cell == b.cell
        for a, b in zip(restored.nets.values(), nl.nets.values()):
            assert [p.full_name for p in a.pins()] \
                == [p.full_name for p in b.pins()]

    @given(st.lists(_op, max_size=25))
    @settings(max_examples=20, deadline=None)
    def test_double_roundtrip_is_stable(self, ops):
        nl = _build_program(ops)
        once = roundtrip(nl)
        twice = roundtrip(once)
        assert netlist_digest(once) == netlist_digest(twice)
