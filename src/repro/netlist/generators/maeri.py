"""MAERI-like accelerator fabric generator.

MAERI (Kwon et al., ASPLOS'18) is the paper's main benchmark: a DNN
accelerator built from a *distribution tree* that streams operands from
memory to a linear array of *multiplier switches* (PEs), and an
*augmented reduction tree* of adder switches that folds partial sums
back.  The paper evaluates 16PE/4BW, 128PE/32BW and 256PE/64BW
configurations with the SRAM banks on the memory die and the fabric on
the logic die.

This generator reproduces that architecture shape at simulator scale:

* ``memory`` region — activation and weight SRAM banks with registered
  interfaces (the cross-tier net sources);
* ``logic`` region — distribution buffer trees, PE array (bit-sliced
  multiply + compression), pipelined reduction tree, control FSM.

The operand bit-width is a scale knob (default 4 bits vs 8/16 in the
real design); DESIGN.md §5 documents the scale-down policy.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.errors import NetlistError
from repro.netlist.builder import NetlistBuilder
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist
from repro.netlist.generators.random_logic import random_cloud
from repro.netlist.generators.sram import sram_bank
from repro.rng import stream
from repro.tech.library import CellLibrary


@dataclass(frozen=True)
class MaeriConfig:
    """Scale parameters of one MAERI instance.

    ``pe_count`` must be a power of two (the reduction tree is binary).
    ``bandwidth`` is the memory-interface width in bits and sets the
    number of SRAM banks (one bank per 8 bits of bandwidth, per operand
    kind).  ``data_width`` is the per-operand bit width.
    """

    pe_count: int = 128
    bandwidth: int = 32
    data_width: int = 4
    control_depth: int = 6
    control_width: int = 24

    def __post_init__(self) -> None:
        if self.pe_count < 2 or self.pe_count & (self.pe_count - 1):
            raise NetlistError("pe_count must be a power of two >= 2")
        if self.bandwidth < 8:
            raise NetlistError("bandwidth must be >= 8 bits")
        if self.data_width < 2:
            raise NetlistError("data_width must be >= 2 bits")

    @property
    def num_banks(self) -> int:
        """SRAM banks per operand kind (activations / weights)."""
        return max(2, self.bandwidth // 8)

    @property
    def display_name(self) -> str:
        return f"maeri_{self.pe_count}pe_{self.bandwidth}bw"


def _pe(builder: NetlistBuilder, idx: int, clock: Net,
        act: list[Net], wt: list[Net], cfg: MaeriConfig) -> list[Net]:
    """One multiplier-switch PE: registered operands, bit-sliced
    multiply (AND partial products + XOR3/MAJ3 compression), registered
    product.  Returns the W product nets."""
    width = cfg.data_width
    with builder.module(f"pe{idx}"):
        act_q = builder.register_word(act, clock, hint="act")
        wt_q = builder.register_word(wt, clock, hint="wt")
        # Partial products: band-limited to keep the cell count linear
        # in W while preserving a multiplier-like depth profile.
        columns: list[list[Net]] = [[] for _ in range(width)]
        for i in range(width):
            for j in range(width):
                col = min(i + j, width - 1)
                columns[col].append(
                    builder.gate("AND2", act_q[i], wt_q[j], hint="pp"))
        # Pipeline cut after partial-product generation (real MAERI
        # multiplier switches are pipelined): register each column.
        columns = [builder.register_word(col, clock, hint=f"ppq{ci}")
                   for ci, col in enumerate(columns)]
        # Carry-save compression per column with XOR3/MAJ3; carries
        # ripple into the next column's input set.  Compression is
        # breadth-first (FIFO), which keeps the tree balanced and the
        # logic depth logarithmic in the column height.
        product: list[Net] = []
        carries_next: list[Net] = []
        for col in columns:
            nets = list(col) + carries_next
            carries_next = []
            while len(nets) > 2:
                a, b, c = nets[0], nets[1], nets[2]
                nets = nets[3:]
                nets.append(builder.gate("XOR3", a, b, c, hint="cmp_s"))
                carries_next.append(
                    builder.gate("MAJ3", a, b, c, hint="cmp_c"))
            if len(nets) == 2:
                product.append(
                    builder.gate("XOR2", nets[0], nets[1], hint="sum"))
                carries_next.append(
                    builder.gate("AND2", nets[0], nets[1], hint="cry"))
            else:
                product.append(nets[0])
        # Terminal carries fold into the MSB through a balanced tree.
        fold = [product[-1]] + carries_next
        while len(fold) > 1:
            nxt = []
            for i in range(0, len(fold) - 1, 2):
                nxt.append(builder.gate("XOR2", fold[i], fold[i + 1],
                                        hint="cfold"))
            if len(fold) % 2:
                nxt.append(fold[-1])
            fold = nxt
        product[-1] = fold[0]
        prod_q = builder.register_word(product, clock, hint="prod")
        return prod_q


def _adder_switch(builder: NetlistBuilder, idx: str, left: list[Net],
                  right: list[Net], sel: Net) -> list[Net]:
    """One reduction-tree adder switch: per-bit carry-save add of the
    two children plus a MUX2 bypass controlled by the dataflow config
    (MAERI's 'augmented' flexibility).  Returns W result nets."""
    width = len(left)
    with builder.module(f"as{idx}"):
        out: list[Net] = []
        carry: Net | None = None
        for b in range(width):
            if carry is None:
                s = builder.gate("XOR2", left[b], right[b], hint="s")
                carry = builder.gate("AND2", left[b], right[b], hint="c")
            else:
                s = builder.gate("XOR3", left[b], right[b], carry, hint="s")
                carry = builder.gate("MAJ3", left[b], right[b], carry,
                                     hint="c")
            # Bypass mux: forward left child or the sum.
            out.append(builder.gate("MUX2", left[b], s, sel, hint="byp"))
        # Terminal carry folds into the MSB to stay width-stable.
        out[-1] = builder.gate("XOR2", out[-1], carry, hint="cfold")
        return out


def generate_maeri(cfg: MaeriConfig,
                   libraries: dict[str, CellLibrary],
                   seed: int) -> Netlist:
    """Generate a MAERI-like netlist per *cfg*.

    ``libraries`` must contain ``"logic"`` and ``"memory"`` regions —
    identical for homogeneous designs, 16 nm/28 nm for heterogeneous.
    """
    if "logic" not in libraries or "memory" not in libraries:
        raise NetlistError("MAERI needs 'logic' and 'memory' libraries")
    rng = stream(f"maeri:{cfg.display_name}", seed)
    builder = NetlistBuilder(cfg.display_name, libraries)
    clock = builder.clock_net("clk")
    # The clock net needs a driver: a top-level clock port.
    clk_port = builder.netlist.add_port("clk_pad", "in")
    clock.attach(clk_port.pin)
    width = cfg.data_width

    # -- memory die: activation + weight banks ------------------------------
    bank_outs: dict[str, list[list[Net]]] = {"act": [], "wt": []}
    with builder.region("memory"):
        stream_in = [builder.input(f"stream_in{i}", tier_hint=1)
                     for i in range(cfg.num_banks)]
        addr = [builder.input(f"addr{i}", tier_hint=1) for i in range(3)]
        we = builder.input("we", tier_hint=1)
        for kind in ("act", "wt"):
            for b in range(cfg.num_banks):
                outs = sram_bank(builder, f"{kind}_bank{b}", clock,
                                 stream_in[b % len(stream_in)], addr, we,
                                 width, rng)
                bank_outs[kind].append(outs)

    # -- logic die: distribution trees ----------------------------------------
    pes_per_bank = cfg.pe_count // cfg.num_banks
    operands: dict[str, list[list[Net]]] = {"act": [], "wt": []}
    with builder.region("logic"):
        with builder.module("dist"):
            for kind in ("act", "wt"):
                # leaf_nets[pe][bit]
                leaf_nets: list[list[Net]] = [[] for _ in range(cfg.pe_count)]
                for b, outs in enumerate(bank_outs[kind]):
                    first_pe = b * pes_per_bank
                    for bit, net in enumerate(outs):
                        leaves = builder.buffer_tree(
                            net, pes_per_bank, hint=f"{kind}{b}b{bit}")
                        for k, leaf in enumerate(leaves):
                            leaf_nets[first_pe + k].append(leaf)
                operands[kind] = leaf_nets

        # -- PE array -----------------------------------------------------------
        pe_outs: list[list[Net]] = []
        for p in range(cfg.pe_count):
            pe_outs.append(_pe(builder, p, clock,
                               operands["act"][p], operands["wt"][p], cfg))

        # -- control FSM driving the reduction-tree selects ---------------------
        with builder.module("ctrl"):
            cfg_in = [builder.input(f"cfg{i}") for i in range(4)]
            state_d = random_cloud(builder, cfg_in, cfg.control_width,
                                   cfg.control_depth, cfg.control_width,
                                   rng, hint="fsm")
            state_q = builder.register_word(state_d, clock, hint="state")

        # -- reduction tree -------------------------------------------------------
        with builder.module("redtree"):
            level = pe_outs
            depth = 0
            while len(level) > 1:
                nxt: list[list[Net]] = []
                for i in range(0, len(level), 2):
                    sel = state_q[(depth + i) % len(state_q)]
                    node = _adder_switch(builder, f"{depth}_{i // 2}",
                                         level[i], level[i + 1], sel)
                    nxt.append(node)
                # Pipeline register every other level to bound path depth.
                if depth % 2 == 1:
                    nxt = [builder.register_word(n, clock,
                                                 hint=f"pipe{depth}")
                           for n in nxt]
                level = nxt
                depth += 1
            result = builder.register_word(level[0], clock, hint="out_reg")

        for i, net in enumerate(result):
            builder.output(f"result{i}", net)

    # Consume leftover state bits so validation passes.
    with builder.region("logic"):
        spare = state_q[0]
        for net in state_q[1:]:
            if not net.sinks:
                spare = builder.gate("XOR2", spare, net, hint="ctrl_fold")
        if not spare.sinks:
            builder.output("ctrl_obs", spare)

    return builder.done()
