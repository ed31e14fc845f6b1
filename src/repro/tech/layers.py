"""BEOL metal-stack and F2F-via models.

The router and the MLS machinery need, per metal layer: resistance and
capacitance per micrometre, routing pitch (which sets gcell capacity),
and preferred direction.  The paper's designs use a 6-layer BEOL per die
for MAERI and 8 layers for the A7 (Table IV "BEOL 6+6 / 8+8"); the
top one or two layers are thick, low-resistance metals that double as
PDN stripes and as the landing resource for Metal Layer Sharing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TechError
from repro.tech.node import TechNode


@dataclass(frozen=True)
class MetalLayer:
    """One routing layer of a die's BEOL stack.

    Attributes
    ----------
    name:
        e.g. ``"M5"``.
    index:
        1-based position from the substrate (M1 = 1).
    r_per_um:
        Wire resistance in ohm per micrometre at the default width.
    c_per_um:
        Wire capacitance in femtofarad per micrometre.
    pitch_um:
        Minimum routing pitch; sets per-gcell track capacity.
    direction:
        Preferred routing direction, ``"H"`` or ``"V"``; layers
        alternate.
    thick:
        True for top "fat" metals usable by the PDN and as the MLS
        landing resource.
    """

    name: str
    index: int
    r_per_um: float
    c_per_um: float
    pitch_um: float
    direction: str
    thick: bool = False

    def __post_init__(self) -> None:
        if self.direction not in ("H", "V"):
            raise TechError(f"layer {self.name}: direction must be 'H' or 'V'")
        if self.r_per_um <= 0 or self.c_per_um <= 0 or self.pitch_um <= 0:
            raise TechError(f"layer {self.name}: electrical params must be positive")

    def wire_resistance(self, length_um: float) -> float:
        """Total resistance in ohm of a *length_um* segment."""
        return self.r_per_um * length_um

    def wire_capacitance(self, length_um: float) -> float:
        """Total capacitance in fF of a *length_um* segment."""
        return self.c_per_um * length_um


@dataclass(frozen=True)
class F2FVia:
    """Face-to-face hybrid-bond via between the two dies.

    Defaults follow the paper's experimental setup (Section IV-A):
    size 0.5 um, pitch 1.0 um, R = 0.5 ohm, C = 0.2 fF.
    """

    size_um: float = 0.5
    pitch_um: float = 1.0
    resistance: float = 0.5
    capacitance: float = 0.2

    def __post_init__(self) -> None:
        if min(self.size_um, self.pitch_um, self.resistance, self.capacitance) <= 0:
            raise TechError("F2F via parameters must all be positive")


# Reference 28 nm per-layer electricals.  Lower metals: tight pitch and
# high resistance; intermediate metals 2x pitch; top metals thick with
# ~8x lower resistance.  These ratios are what give MLS its payoff.
_BASE_LAYERS = [
    # name, r_per_um, c_per_um, pitch_um, thick
    ("M1", 4.50, 0.200, 0.10, False),
    ("M2", 3.80, 0.190, 0.10, False),
    ("M3", 2.60, 0.180, 0.20, False),
    ("M4", 2.20, 0.175, 0.20, False),
    ("M5", 0.90, 0.165, 0.40, False),
    ("M6", 0.55, 0.160, 0.40, True),
    ("M7", 0.14, 0.150, 0.80, True),
    ("M8", 0.11, 0.145, 0.80, True),
]


class MetalStack:
    """Ordered BEOL stack of one die.

    Provides layer lookup by name/index, the pairing used by the layer
    assigner (layers are consumed in H/V pairs), and convenience
    accessors for the thick top metals shared with the PDN and MLS.
    """

    def __init__(self, layers: list[MetalLayer], via_r: float = 3.0,
                 via_c: float = 0.05):
        if not layers:
            raise TechError("metal stack must contain at least one layer")
        expected = list(range(1, len(layers) + 1))
        if [layer.index for layer in layers] != expected:
            raise TechError("metal layers must be supplied bottom-up with "
                            "contiguous 1-based indices")
        self.layers = list(layers)
        self.via_r = via_r    # inter-layer via resistance, ohm
        self.via_c = via_c    # inter-layer via capacitance, fF
        self._by_name = {layer.name: layer for layer in layers}
        if len(self._by_name) != len(layers):
            raise TechError("duplicate layer names in metal stack")

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    def layer(self, name_or_index: str | int) -> MetalLayer:
        """Fetch a layer by ``"M3"`` or by 1-based index."""
        if isinstance(name_or_index, int):
            if not 1 <= name_or_index <= len(self.layers):
                raise TechError(f"layer index {name_or_index} out of range "
                                f"1..{len(self.layers)}")
            return self.layers[name_or_index - 1]
        try:
            return self._by_name[name_or_index]
        except KeyError:
            raise TechError(f"unknown metal layer {name_or_index!r}") from None

    @property
    def top(self) -> MetalLayer:
        """The top-most (thickest) layer — the paper's "M-T"."""
        return self.layers[-1]

    def pairs(self) -> list[tuple[MetalLayer, MetalLayer]]:
        """H/V layer pairs bottom-up, used by length-based assignment.

        An odd top layer pairs with itself (still routable, both
        directions at halved capacity).
        """
        out: list[tuple[MetalLayer, MetalLayer]] = []
        i = 0
        while i < len(self.layers):
            if i + 1 < len(self.layers):
                out.append((self.layers[i], self.layers[i + 1]))
                i += 2
            else:
                out.append((self.layers[i], self.layers[i]))
                i += 1
        return out

    def stack_via_path(self, from_index: int, to_index: int) -> tuple[float, float]:
        """(R, C) of the via stack climbing between two layer indices."""
        hops = abs(from_index - to_index)
        return hops * self.via_r, hops * self.via_c

    def describe_span(self, lo: int, hi: int) -> str:
        """Human-readable span like ``"M1-4"`` used in Table I strings."""
        if lo == hi:
            return f"M{lo}"
        return f"M{lo}-{hi}"


def default_stack(node: TechNode, num_layers: int = 6,
                  wire_scale: float = 4.0) -> MetalStack:
    """Build the standard BEOL stack for *node* with *num_layers* metals.

    The node's ``wire_r_scale`` / ``wire_c_scale`` apply to the lower
    (thin) metals only: top thick metals are similar across nodes in
    practice, and keeping them unscaled preserves the paper's central
    asymmetry — a 16 nm die's local wires are slow, but the 28 nm
    neighbour's M5-M6 borrowed through MLS are fast for everyone.

    ``wire_scale`` compensates the reproduction's instance-count
    scale-down: our benchmarks have ~20x fewer cells than the paper's,
    so the floorplan (and every route) is linearly smaller, which
    would make wire RC negligible against gate delay — a regime where
    MLS could not matter.  Scaling every layer's per-um R and C by
    *wire_scale* makes one floorplan micrometre represent
    ``wire_scale`` physical micrometres of wiring, restoring the
    paper's mm-die electrical regime (see DESIGN.md section 5).
    """
    if not 2 <= num_layers <= len(_BASE_LAYERS):
        raise TechError(f"num_layers must be in 2..{len(_BASE_LAYERS)}")
    if wire_scale <= 0:
        raise TechError("wire_scale must be positive")
    layers = []
    for i, (name, r, c, pitch, thick) in enumerate(_BASE_LAYERS[:num_layers]):
        if not thick:
            r = r * node.wire_r_scale
            c = c * node.wire_c_scale
        r *= wire_scale
        c *= wire_scale
        direction = "H" if i % 2 == 0 else "V"
        layers.append(MetalLayer(name=name, index=i + 1, r_per_um=r,
                                 c_per_um=c, pitch_um=pitch,
                                 direction=direction, thick=thick))
    # Mark the top layer thick regardless, so every stack exposes an
    # MLS/PDN resource (a 6-layer stack ends at thick M6).
    top = layers[-1]
    if not top.thick:
        layers[-1] = MetalLayer(name=top.name, index=top.index,
                                r_per_um=top.r_per_um, c_per_um=top.c_per_um,
                                pitch_um=top.pitch_um, direction=top.direction,
                                thick=True)
    return MetalStack(layers)
