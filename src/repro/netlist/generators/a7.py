"""A7-like dual-core processor generator.

The paper's second benchmark is a dual-core Cortex-A7.  We reproduce
its architecture *shape*: two identical in-order cores, each a chain of
pipeline stages (fetch, decode, execute, memory, writeback) made of
registered random-logic datapath clouds, with L1 instruction/data cache
SRAM banks on the memory die and a small snoop/bus unit coupling the
cores.  The cache-to-pipeline nets are the cross-tier traffic the MLS
experiments exercise; the A7 BEOL is 8+8 layers in the paper
(Table IV), which the harness config mirrors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import NetlistError
from repro.netlist.builder import NetlistBuilder
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist
from repro.netlist.generators.random_logic import random_cloud
from repro.netlist.generators.sram import sram_bank
from repro.rng import stream
from repro.tech.library import CellLibrary


@dataclass(frozen=True)
class A7Config:
    """Scale parameters of the dual-core design.

    ``word_width`` is the datapath width (32 in the real core; the
    default scales it down), ``stage_depth`` the logic depth per
    pipeline stage, ``cache_banks`` the number of SRAM banks per cache
    (I$ and D$) per core.
    """

    cores: int = 2
    word_width: int = 16
    stage_depth: int = 8
    cache_banks: int = 4
    bus_width: int = 8

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise NetlistError("need at least one core")
        if self.word_width < 4:
            raise NetlistError("word_width must be >= 4")
        if self.stage_depth < 2:
            raise NetlistError("stage_depth must be >= 2")
        if self.cache_banks < 1:
            raise NetlistError("cache_banks must be >= 1")

    @property
    def display_name(self) -> str:
        return f"a7_{self.cores}core_w{self.word_width}"


_STAGES = ("fetch", "decode", "execute", "mem", "wb")


def _core(builder: NetlistBuilder, core_idx: int, clock: Net,
          icache_bits: list[Net], dcache_bits: list[Net],
          bus_in: list[Net], cfg: A7Config,
          rng: np.random.Generator) -> dict[str, list[Net]]:
    """One in-order core.  Returns interface nets: ``dcache_addr`` (to
    the D$ banks), ``bus_out`` (to the snoop unit), ``retire`` (for
    output ports)."""
    width = cfg.word_width
    with builder.module(f"core{core_idx}"):
        stage_in = list(icache_bits)
        # Ensure the stage input vector is word-wide; surplus cache
        # bits fold into bit 0 so nothing dangles.
        while len(stage_in) < width:
            stage_in.append(stage_in[len(stage_in) % len(icache_bits)])
        for extra_bit in stage_in[width:]:
            stage_in[0] = builder.gate("XOR2", stage_in[0], extra_bit,
                                       hint="ifold")
        q = builder.register_word(stage_in[:width], clock, hint="if_reg")
        for stage in _STAGES:
            with builder.module(stage):
                extra: list[Net] = []
                if stage == "mem":
                    extra = dcache_bits
                if stage == "execute":
                    extra = bus_in
                d = random_cloud(builder, q + extra, width,
                                 cfg.stage_depth, width + 4, rng,
                                 hint=stage[:2])
                q = builder.register_word(d, clock, hint=f"{stage}_reg")
        # Interfaces tap the writeback stage.
        dcache_addr = q[: max(3, width // 4)]
        bus_out = q[width // 2: width // 2 + cfg.bus_width]
        retire = q
        return {"dcache_addr": dcache_addr, "bus_out": bus_out,
                "retire": retire}


def generate_a7_dual_core(cfg: A7Config,
                          libraries: dict[str, CellLibrary],
                          seed: int) -> Netlist:
    """Generate the dual-core design per *cfg*.

    ``libraries`` must contain ``"logic"`` and ``"memory"`` regions.
    """
    if "logic" not in libraries or "memory" not in libraries:
        raise NetlistError("A7 needs 'logic' and 'memory' libraries")
    rng = stream(f"a7:{cfg.display_name}", seed)
    builder = NetlistBuilder(cfg.display_name, libraries)
    clock = builder.clock_net("clk")
    clk_port = builder.netlist.add_port("clk_pad", "in")
    clock.attach(clk_port.pin)

    # -- memory die: caches ---------------------------------------------------
    cache_bits: list[dict[str, list[Net]]] = []
    with builder.region("memory"):
        fill = [builder.input(f"fill{i}", tier_hint=1)
                for i in range(cfg.cache_banks)]
        addr = [builder.input(f"maddr{i}", tier_hint=1) for i in range(3)]
        we = builder.input("mwe", tier_hint=1)
        for c in range(cfg.cores):
            per_core: dict[str, list[Net]] = {}
            for kind in ("icache", "dcache"):
                bits: list[Net] = []
                for b in range(cfg.cache_banks):
                    outs = sram_bank(
                        builder, f"core{c}_{kind}{b}", clock,
                        fill[b % len(fill)], addr, we,
                        max(2, cfg.word_width // cfg.cache_banks), rng)
                    bits.extend(outs)
                per_core[kind] = bits
            cache_bits.append(per_core)

    # -- logic die: cores + snoop/bus unit ------------------------------------
    with builder.region("logic"):
        irq = [builder.input(f"irq{i}") for i in range(2)]
        # Snoop-control state feeding both cores' execute stages.
        with builder.module("scu"):
            scu_seed = random_cloud(builder, irq, cfg.bus_width, 4,
                                    cfg.bus_width, rng, hint="scu")
            scu_q = builder.register_word(scu_seed, clock, hint="scu_reg")

        cores = []
        for c in range(cfg.cores):
            cores.append(_core(builder, c, clock,
                               cache_bits[c]["icache"],
                               cache_bits[c]["dcache"],
                               scu_q, cfg, rng))

        # Bus arbitration cloud mixing both cores' bus_out.
        with builder.module("bus"):
            bus_nets = [net for core in cores for net in core["bus_out"]]
            arb = random_cloud(builder, bus_nets, cfg.bus_width, 3,
                               cfg.bus_width, rng, hint="arb")
            arb_q = builder.register_word(arb, clock, hint="arb_reg")
        for i, net in enumerate(arb_q):
            builder.output(f"bus_obs{i}", net)

        # Retire buses become output ports; D$ address nets loop back to
        # the memory die as the logic->memory cross-tier traffic.
        for c, core in enumerate(cores):
            for i, net in enumerate(core["retire"][: cfg.word_width // 2]):
                builder.output(f"c{c}_retire{i}", net)
            unused = core["retire"][cfg.word_width // 2:]
            spare = unused[0]
            for net in unused[1:]:
                spare = builder.gate("XOR2", spare, net, hint=f"c{c}_fold")
            builder.output(f"c{c}_status", spare)

    with builder.region("memory"):
        # Writeback path: core D$ addresses re-registered on the memory
        # die (logic -> memory cross-tier nets).
        for c, core in enumerate(cores):
            for i, net in enumerate(core["dcache_addr"]):
                q = builder.flop(net, clock, hint=f"c{c}_wb{i}")
                builder.output(f"c{c}_wb_obs{i}", q, tier_hint=1)

    return builder.done()
