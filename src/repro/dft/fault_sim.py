"""Bit-parallel random-pattern stuck-at fault simulation.

Simulates the full-scan combinational view: controllable sources are
input ports, scan-flop Q pins and macro Q pins (memory BIST bypass);
observation points are output ports, flop D/SI pins and macro data
pins, plus any caller-supplied extra observe nets (the MLS DFT
strategies observe the driver side of each shared net).

Three-valued logic uses (value, known) word pairs with pessimistic
X-propagation: a gate output is known only when all its inputs are —
exact for the XOR-heavy arithmetic that dominates our benchmarks,
slightly pessimistic elsewhere.  ``cut_nets`` models the open
connections MLS creates during individual-die test: their sinks read
X in die-level test mode (Figure 3).

Detection is cone-local: each fault re-simulates only its downstream
cone, comparing at reachable observation points — the standard
single-fault propagation optimization that keeps simulator-scale
designs tractable in pure Python.  A cone is put in topological order
by sorting its gates on their rank in the view's levelized order,
computed once per view, so ordering a cone costs its own size, not the
design's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DFTError
from repro.netlist.cell import Instance
from repro.netlist.netlist import Netlist
from repro.dft.faults import Fault, FaultUniverse, SA1
from repro.dft.logic3 import eval_gate

_ALL = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


@dataclass
class FaultSimResult:
    """Coverage outcome."""

    total_faults: int          # uncollapsed universe size
    simulated_faults: int      # collapsed set actually simulated
    detected_collapsed: int
    patterns: int

    @property
    def coverage_pct(self) -> float:
        """Detected fraction of the simulated (collapsed) set, as %."""
        if self.simulated_faults == 0:
            return 100.0
        return 100.0 * self.detected_collapsed / self.simulated_faults

    @property
    def detected_total(self) -> int:
        """Detected count scaled back to the uncollapsed universe —
        what a tool's fault report prints next to 'total faults'."""
        return round(self.total_faults * self.coverage_pct / 100.0)

    def summary(self) -> dict[str, float]:
        return {
            "total_faults": self.total_faults,
            "detected": self.detected_total,
            "coverage_pct": self.coverage_pct,
            "patterns": self.patterns,
        }


class _ScanView:
    """Levelized combinational view with (value, known) words."""

    def __init__(self, netlist: Netlist, words: int,
                 rng: np.random.Generator,
                 cut_nets: set[str],
                 pinned_ports: dict[str, int],
                 extra_observe: set[str]):
        self.netlist = netlist
        self.words = words
        self.cut_nets = cut_nets
        self.order = netlist.topological_order()
        self._rank = {inst.name: i for i, inst in enumerate(self.order)}
        self.value: dict[str, np.ndarray] = {}
        self.known: dict[str, np.ndarray] = {}

        # Controllable sources get independent random words.
        for port in netlist.ports.values():
            net = port.pin.net
            if net is None or net.is_clock or port.direction != "in":
                continue
            if port.name in pinned_ports:
                word = _ALL if pinned_ports[port.name] else np.uint64(0)
                self.value[net.name] = np.full(words, word, dtype=np.uint64)
            else:
                self.value[net.name] = _rand_words(rng, words)
            self.known[net.name] = np.full(words, _ALL, dtype=np.uint64)
        for inst in netlist.sequential_instances():
            net = inst.output_pin.net
            if net is None:
                continue
            self.value[net.name] = _rand_words(rng, words)
            self.known[net.name] = np.full(words, _ALL, dtype=np.uint64)

        self.observe_nets = self._observation_nets(extra_observe)
        self._evaluate_all()

    # -- good simulation -------------------------------------------------------

    def _evaluate_all(self) -> None:
        zero = np.zeros(self.words, dtype=np.uint64)
        for inst in self.order:
            out_net = inst.output_pin.net
            if out_net is None:
                continue
            ins_v, ins_k = [], []
            for pin in inst.input_pins():
                v, k = self._pin_words(pin, zero)
                ins_v.append(v)
                ins_k.append(k)
            value, known = eval_gate(inst.cell, ins_v, ins_k)
            self.value[out_net.name] = value
            self.known[out_net.name] = known

    def _pin_words(self, pin, zero):
        """(value, known) seen AT a sink pin, honouring cut nets."""
        net = pin.net
        if net is None:
            return zero, zero
        if net.name in self.cut_nets:
            return zero, zero          # open connection: X
        v = self.value.get(net.name)
        k = self.known.get(net.name)
        if v is None:
            return zero, zero          # undriven in scan view
        return v, k

    def _observation_nets(self, extra: set[str]) -> list[str]:
        obs: set[str] = set(extra)
        for port in self.netlist.ports.values():
            if port.direction == "out" and port.pin.net is not None:
                obs.add(port.pin.net.name)
        for inst in self.netlist.instances.values():
            if not inst.is_sequential:
                continue
            for pin in inst.input_pins():
                if pin.name == "SE":
                    continue
                if pin.net is not None and pin.net.name not in self.cut_nets:
                    obs.add(pin.net.name)
        return sorted(obs)

    # -- cone machinery ---------------------------------------------------------

    def downstream_cone(self, net_name: str) -> list[Instance]:
        """Combinational instances reachable from *net_name*, in
        topological order (cut nets block propagation)."""
        net = self.netlist.nets.get(net_name)
        if net is None:
            raise DFTError(f"unknown net {net_name}")
        hit: set[str] = set()
        cone: list[Instance] = []
        frontier = [net]
        while frontier:
            cur = frontier.pop()
            if cur.name in self.cut_nets:
                continue
            for sink in cur.sinks:
                owner = sink.owner
                if owner is None or owner.is_sequential:
                    continue
                if sink.name == "SE" or sink is owner.clock_pin:
                    continue
                if owner.name in hit:
                    continue
                hit.add(owner.name)
                cone.append(owner)
                out = owner.output_pin.net
                if out is not None:
                    frontier.append(out)
        rank = self._rank
        cone.sort(key=lambda inst: rank[inst.name])
        return cone


def _rand_words(rng: np.random.Generator, words: int) -> np.ndarray:
    return rng.integers(0, 2 ** 63, size=words, dtype=np.uint64) \
        ^ (rng.integers(0, 2, size=words, dtype=np.uint64) << np.uint64(63))


def simulate_faults(netlist: Netlist, universe: FaultUniverse,
                    rng: np.random.Generator,
                    patterns: int = 192,
                    cut_nets: set[str] | None = None,
                    pinned_ports: dict[str, int] | None = None,
                    extra_observe: set[str] | None = None,
                    max_faults: int | None = None
                    ) -> FaultSimResult:
    """Simulate the collapsed universe under *patterns* random vectors.

    ``max_faults`` caps the simulated set by deterministic stride
    sampling (fault-sampled coverage, the standard practice for large
    designs); reported coverage then extrapolates from the sample.
    Per-fault detection only reads the good-machine view (faulty values
    live in fault-local dicts), so faults are independent of each other.
    """
    if patterns < 64 or patterns % 64:
        raise DFTError("patterns must be a positive multiple of 64")
    words = patterns // 64
    view = _ScanView(netlist, words, rng,
                     cut_nets=set(cut_nets or ()),
                     pinned_ports=dict(pinned_ports or {}),
                     extra_observe=set(extra_observe or ()))

    faults = list(universe)
    if max_faults is not None and len(faults) > max_faults:
        stride = -(-len(faults) // max_faults)     # ceil division
        faults = faults[::stride]

    detected = 0
    zero = np.zeros(words, dtype=np.uint64)
    obs_set = set(view.observe_nets)
    for fault in faults:
        if _detect_one(netlist, view, fault, obs_set, zero):
            detected += 1
    return FaultSimResult(
        total_faults=universe.total,
        simulated_faults=len(faults),
        detected_collapsed=detected,
        patterns=patterns,
    )


def _fault_site(netlist: Netlist, site: str):
    """Resolve a pin full-name to (net, owner_instance, pin_name)."""
    if site.startswith("port:"):
        port = netlist.port(site[5:])
        return port.pin.net, None, port.name
    inst_name, pin_name = site.rsplit("/", 1)
    inst = netlist.instance(inst_name)
    return inst.pins[pin_name].net, inst, pin_name


def _detect_one(netlist: Netlist, view: _ScanView, fault: Fault,
                obs_set: set[str], zero: np.ndarray) -> bool:
    net, inst, pin_name = _fault_site(netlist, fault.site)
    if net is None:
        return False
    stuck_word = _ALL if fault.stuck == SA1 else np.uint64(0)

    if fault.kind == "boundary":
        # Macro-input / output-port fault: detected iff the net is
        # observable there (it is an obs point by construction) and a
        # known good value differs from the stuck value.
        if net.name in view.cut_nets:
            return False
        good_v = view.value.get(net.name)
        good_k = view.known.get(net.name)
        if good_v is None:
            return False
        diff = (good_v ^ np.full_like(good_v, stuck_word)) & good_k
        return bool(diff.any())

    # Faulty value injected on the net (output fault) or privately at
    # one gate input (input fault), then cone-resimulated.
    faulty_v = dict()
    faulty_k = dict()

    def read(pin, values, knowns):
        n = pin.net
        if n is None or n.name in view.cut_nets:
            return zero, zero
        v = values.get(n.name, view.value.get(n.name))
        k = knowns.get(n.name, view.known.get(n.name))
        if v is None:
            return zero, zero
        return v, k

    if fault.kind == "out":
        faulty_v[net.name] = np.full(view.words, stuck_word, dtype=np.uint64)
        faulty_k[net.name] = np.full(view.words, _ALL, dtype=np.uint64)
        cone = view.downstream_cone(net.name)
        dirty = {net.name}
    else:
        # Input fault: re-evaluate the owning gate with the pin forced.
        assert inst is not None
        out_net = inst.output_pin.net
        if out_net is None or inst.is_sequential:
            return False
        ins_v, ins_k = [], []
        for pin in inst.input_pins():
            v, k = read(pin, faulty_v, faulty_k)
            if pin.name == pin_name:
                v = np.full(view.words, stuck_word, dtype=np.uint64)
                k = np.full(view.words, _ALL, dtype=np.uint64)
            ins_v.append(v)
            ins_k.append(k)
        value, known = eval_gate(inst.cell, ins_v, ins_k)
        faulty_v[out_net.name] = value
        faulty_k[out_net.name] = known
        cone = view.downstream_cone(out_net.name)
        dirty = {out_net.name}

    for gate in cone:
        if not any(p.net is not None and p.net.name in dirty
                   for p in gate.input_pins()):
            continue
        out_net2 = gate.output_pin.net
        if out_net2 is None:
            continue
        ins_v, ins_k = [], []
        for pin in gate.input_pins():
            v, k = read(pin, faulty_v, faulty_k)
            ins_v.append(v)
            ins_k.append(k)
        new_v, known = eval_gate(gate.cell, ins_v, ins_k)
        old_v = view.value.get(out_net2.name)
        old_k = view.known.get(out_net2.name)
        if old_v is not None and np.array_equal(new_v, old_v) \
                and np.array_equal(known, old_k):
            continue
        faulty_v[out_net2.name] = new_v
        faulty_k[out_net2.name] = known
        dirty.add(out_net2.name)

    for net_name in dirty:
        if net_name not in obs_set:
            continue
        good_v = view.value.get(net_name)
        good_k = view.known.get(net_name)
        if good_v is None:
            continue
        both_known = good_k & faulty_k[net_name]
        diff = (good_v ^ faulty_v[net_name]) & both_known
        if diff.any():
            return True
    return False
