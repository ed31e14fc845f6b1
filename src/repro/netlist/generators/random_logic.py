"""Random combinational logic clouds.

Pipeline-stage datapaths and control FSMs are modelled as random DAG
clouds with a realistic gate mix.  The construction guarantees every
generated gate output is consumed (no dangling nets), every declared
output is driven, and the cloud is loop-free by levelization.

A cloud is a pure function of its generator's state, and the draws are
those of the first implementation: each gate is
``rng.choice(len(mix), p=weights)``, and each input pick draws from a
source level's still-unconsumed nets in level order.  Neither is
rebuilt per pick: the gate mix's CDF is built once per cloud exactly
as ``Generator.choice`` builds it from ``p`` (see :func:`mix_picker`),
and each level's unconsumed nets are kept as the picks consume them
instead of rescanning the level on every pick.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable

import numpy as np

from repro.errors import NetlistError
from repro.netlist.builder import NetlistBuilder
from repro.netlist.net import Net

#: Default gate mix: (cell, relative weight).  Mirrors the inverter/
#: NAND-heavy composition of synthesized control+datapath logic.
DEFAULT_MIX: list[tuple[str, float]] = [
    ("INV", 0.16),
    ("BUF", 0.04),
    ("NAND2", 0.22),
    ("NOR2", 0.12),
    ("AND2", 0.08),
    ("OR2", 0.07),
    ("XOR2", 0.09),
    ("XNOR2", 0.04),
    ("AOI21", 0.07),
    ("OAI21", 0.05),
    ("MUX2", 0.06),
]


def mix_picker(mix: list[tuple[str, float]]
               ) -> Callable[[np.random.Generator], int]:
    """A draw of ``rng.choice(len(mix), p=w)``, ``w`` the mix's weights
    over their sum, with the CDF built once.

    ``choice`` takes ``p.cumsum()``, divides it by its last entry,
    draws one ``random()`` and returns ``cdf.searchsorted(u,
    side="right")``.  The picker builds that CDF once, as a list, and
    :func:`bisect_right` over it is that same search, so each call
    returns the same index from the same single draw and leaves *rng*
    in the same state.
    """
    weights = np.array([m[1] for m in mix], dtype=float)
    if not len(weights) or not np.isfinite(weights).all() \
            or (weights < 0).any() or not weights.sum() > 0:
        raise NetlistError("gate mix needs finite, non-negative weights "
                           "with a positive sum")
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    cdf_list = cdf.tolist()
    return lambda rng: bisect_right(cdf_list, rng.random())


def random_cloud(builder: NetlistBuilder, inputs: list[Net],
                 out_count: int, depth: int,
                 width: int, rng: np.random.Generator,
                 mix: list[tuple[str, float]] | None = None,
                 hint: str = "cl") -> list[Net]:
    """Build a random combinational cloud and return its output nets.

    Parameters
    ----------
    inputs:
        Nets feeding level 0.  Must be non-empty.
    out_count:
        Number of output nets returned.
    depth:
        Number of gate levels (logic depth of the stage).
    width:
        Gates per level.
    rng:
        Stream from :mod:`repro.rng`; the cloud is a pure function of
        the stream state.

    Guarantees: all internal nets are consumed (folded into collector
    XOR trees when not otherwise used), so the resulting netlist
    validates.
    """
    if not inputs:
        raise NetlistError("random_cloud needs at least one input net")
    if out_count <= 0 or depth <= 0 or width <= 0:
        raise NetlistError("out_count, depth and width must be positive")
    mix = mix or DEFAULT_MIX
    names = [m[0] for m in mix]
    pick_gate = mix_picker(mix)

    lib = builder.libraries[builder.current_region]
    levels: list[list[Net]] = [list(inputs)]
    # Per level, its nets that no pick has consumed yet, in level order.
    unused: list[list[Net]] = [list(inputs)]
    usage: dict[str, int] = {net.name: 0 for net in inputs}

    def pick_input(level_idx: int) -> Net:
        # Draw mostly from the previous level, sometimes two back,
        # preferring under-used nets so nothing is left dangling.
        src = level_idx - 1
        if level_idx >= 2 and rng.random() < 0.25:
            src = level_idx - 2
        idle = unused[src]
        pool = idle if idle and rng.random() < 0.7 else levels[src]
        net = pool[int(rng.integers(len(pool)))]
        if not usage[net.name]:
            # Every copy goes (a net may be listed twice as an input).
            unused[src] = [n for n in idle if n is not net]
        usage[net.name] += 1
        return net

    for level_idx in range(1, depth + 1):
        level: list[Net] = []
        for _ in range(width):
            cell_name = names[pick_gate(rng)]
            cell = lib.get(cell_name)
            ins = [pick_input(level_idx) for _ in range(cell.num_inputs)]
            out = builder.gate(cell_name, *ins, hint=hint)
            usage[out.name] = 0
            level.append(out)
        levels.append(level)
        unused.append(list(level))

    outputs: list[Net] = []
    final = levels[-1]
    # Seed outputs from the last level round-robin.
    for i in range(out_count):
        net = final[i % len(final)]
        usage[net.name] = usage.get(net.name, 0) + 1
        outputs.append(net)
    # Fold every net that never found a sink (including unused inputs)
    # into XOR chains over the outputs, so the netlist validates.
    leftovers = [net for level in levels for net in level
                 if usage.get(net.name, 0) == 0]
    idx = 0
    for net in leftovers:
        merged = builder.gate("XOR2", outputs[idx % out_count], net,
                              hint=f"{hint}_fold")
        usage[net.name] = usage.get(net.name, 0) + 1
        outputs[idx % out_count] = merged
        idx += 1
    return outputs
