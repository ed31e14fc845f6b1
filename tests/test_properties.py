"""Property-based tests on core invariants (hypothesis)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dft.logic3 import eval_gate, truth_table
from repro.nn import Tensor
from repro.route import RcTables, RouteEdge, RouteTree
from repro.tech import F2FVia, NODE_28NM, build_library, default_stack

LIB = build_library(NODE_28NM)
STACKS = (default_stack(NODE_28NM, 6), default_stack(NODE_28NM, 6))
F2F = F2FVia()
RC = RcTables(STACKS, F2F)
_GATES = ["INV", "NAND2", "NOR2", "XOR2", "AND2", "OR2", "MUX2",
          "AOI21", "OAI21", "MAJ3", "XOR3"]


def _reference_3value(cell, ins):
    """Brute-force 3-valued evaluation of one (v, k) bit pattern.

    ``ins`` is a list of 0/1/None (None = X).  Returns 0/1/None.
    """
    unknown = [i for i, v in enumerate(ins) if v is None]
    outcomes = set()
    for completion in itertools.product((0, 1), repeat=len(unknown)):
        vals = list(ins)
        for idx, bit in zip(unknown, completion):
            vals[idx] = bit
        words = [np.uint64(0xFFFFFFFFFFFFFFFF) if b else np.uint64(0)
                 for b in vals]
        outcomes.add(int(cell.evaluate(*words) & np.uint64(1)))
    return outcomes.pop() if len(outcomes) == 1 else None


class TestLogic3Exactness:
    @given(st.sampled_from(_GATES),
           st.lists(st.sampled_from([0, 1, None]), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce(self, gate_name, raw_ins):
        cell = LIB.get(gate_name)
        ins = raw_ins[:cell.num_inputs]
        expected = _reference_3value(cell, ins)
        ins_v, ins_k = [], []
        for v in ins:
            if v is None:
                ins_v.append(np.array([np.uint64(0)]))
                ins_k.append(np.array([np.uint64(0)]))
            else:
                word = np.uint64(0xFFFFFFFFFFFFFFFF) if v else np.uint64(0)
                ins_v.append(np.array([word]))
                ins_k.append(np.array([np.uint64(0xFFFFFFFFFFFFFFFF)]))
        value, known = eval_gate(cell, ins_v, ins_k)
        bit_known = bool(known[0] & np.uint64(1))
        if expected is None:
            assert not bit_known
        else:
            assert bit_known
            assert int(value[0] & np.uint64(1)) == expected

    def test_truth_table_cached_and_complete(self):
        for name in _GATES:
            cell = LIB.get(name)
            rows = truth_table(cell)
            assert len(rows) == 2 ** cell.num_inputs
            assert truth_table(cell) is rows      # cached


class TestElmoreInvariants:
    @given(st.lists(st.tuples(st.floats(1.0, 80.0), st.integers(0, 2)),
                    min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_cap_additivity_on_chains(self, segments):
        """Total wire cap equals the sum of per-edge caps, and Elmore
        delay is monotone along a chain."""
        inv = LIB.get("INV")
        from repro.netlist import Netlist
        nl = Netlist("chain")
        driver = nl.add_instance("d0", inv)
        tree = RouteTree("n")
        tree.add_node(0, 0, 0, pin=driver.output_pin)
        x = 0.0
        expected_c = 0.0
        sink_delays = []
        for i, (length, pair) in enumerate(segments):
            x += length
            sink_inst = nl.add_instance(f"s{i}", inv)
            tree.add_node(x, 0, 0, pin=sink_inst.pin("A"))
            edge = RouteEdge(i, i + 1, length, tier=0, pair=pair)
            tree.add_edge(edge)
            la, lb = STACKS[0].pairs()[pair]
            expected_c += (la.c_per_um + lb.c_per_um) / 2 * length
        rc = RC.extract(tree)
        assert rc.wire_cap_ff == pytest.approx(expected_c)
        delays = [rc.sink_delay_ps[f"s{i}/A"]
                  for i in range(len(segments))]
        assert all(a <= b + 1e-9 for a, b in zip(delays, delays[1:]))

    @given(st.floats(1.0, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_shared_edge_never_cheaper_in_cap_than_bare_metal(self, length):
        """F2F vias and escape stubs always add capacitance."""
        inv = LIB.get("INV")
        from repro.netlist import Netlist
        nl = Netlist("x")
        d = nl.add_instance("d0", inv)
        s = nl.add_instance("s0", inv)

        def rc_for(shared):
            tree = RouteTree("n")
            tree.add_node(0, 0, 0, pin=d.output_pin)
            tree.add_node(length, 0, 0, pin=s.pin("A"))
            top = len(STACKS[0].pairs()) - 1
            if shared:
                tree.add_edge(RouteEdge(0, 1, length, tier=1, pair=top,
                                        n_f2f=2, via_hops=8, shared=True,
                                        escape_um=5.0))
            else:
                tree.add_edge(RouteEdge(0, 1, length, tier=0, pair=top))
            return RC.extract(tree)
        assert rc_for(True).wire_cap_ff > rc_for(False).wire_cap_ff


class TestTensorProperties:
    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_softmax_rows_normalized(self, n, m):
        rng = np.random.default_rng(n * 10 + m)
        t = Tensor(rng.normal(size=(n, m)))
        out = t.softmax(axis=-1).data
        assert np.allclose(out.sum(axis=-1), 1.0)
        assert (out >= 0).all()

    @given(st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_sigmoid_tanh_identity(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 3))
        t = Tensor(x)
        # tanh(x) == 2*sigmoid(2x) - 1
        lhs = t.tanh().data
        rhs = 2.0 * Tensor(2.0 * x).sigmoid().data - 1.0
        assert np.allclose(lhs, rhs, atol=1e-9)

    @given(st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_grad_of_sum_is_ones(self, n):
        t = Tensor(np.arange(float(n)), requires_grad=True)
        t.sum().backward()
        assert np.allclose(t.grad, 1.0)


class TestScanViewDeterminism:
    @given(seed=st.integers(0, 2 ** 16))
    @settings(max_examples=10, deadline=None)
    def test_fault_sim_seed_stability(self, hetero_tech, seed):
        from repro.dft import build_fault_universe, simulate_faults
        from repro.rng import stream
        from tests.conftest import make_chain_netlist
        nl = make_chain_netlist(hetero_tech, stages=2)
        universe = build_fault_universe(nl)
        a = simulate_faults(nl, universe, stream("p", seed), patterns=64)
        b = simulate_faults(nl, universe, stream("p", seed), patterns=64)
        assert a.detected_collapsed == b.detected_collapsed
