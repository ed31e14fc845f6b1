"""Technology model tests: nodes, metal stacks, cells, libraries."""

import numpy as np
import pytest

from repro.errors import TechError
from repro.tech import (NODE_16NM, NODE_28NM, CellType, F2FVia, MetalLayer,
                        MetalStack, build_library, default_stack, get_node)
from repro.tech.cells import reference_cells


class TestNodes:
    def test_lookup(self):
        assert get_node("28nm") is NODE_28NM
        assert get_node("16nm") is NODE_16NM

    def test_unknown_node(self):
        with pytest.raises(TechError, match="unknown technology node"):
            get_node("7nm")

    def test_16nm_is_faster_denser(self):
        assert NODE_16NM.delay_scale < NODE_28NM.delay_scale
        assert NODE_16NM.area_scale < NODE_28NM.area_scale

    def test_16nm_wires_more_resistive(self):
        assert NODE_16NM.wire_r_scale > NODE_28NM.wire_r_scale

    def test_paper_voltages(self):
        assert NODE_16NM.vdd == pytest.approx(0.81)
        assert NODE_28NM.vdd == pytest.approx(0.90)


class TestMetalStack:
    def test_default_stack_structure(self):
        stack = default_stack(NODE_28NM, 6)
        assert len(stack) == 6
        assert stack.layer("M1").index == 1
        assert stack.layer(6).name == "M6"
        assert stack.top.thick

    def test_directions_alternate(self):
        stack = default_stack(NODE_28NM, 6)
        dirs = [layer.direction for layer in stack]
        assert dirs == ["H", "V", "H", "V", "H", "V"]

    def test_pairs(self):
        stack = default_stack(NODE_28NM, 6)
        pairs = stack.pairs()
        assert len(pairs) == 3
        assert pairs[0][0].name == "M1" and pairs[0][1].name == "M2"
        assert pairs[2][1].name == "M6"

    def test_odd_stack_pairs_last_self(self):
        stack = default_stack(NODE_28NM, 5)
        pairs = stack.pairs()
        assert pairs[-1][0] is pairs[-1][1]

    def test_upper_metals_less_resistive(self):
        stack = default_stack(NODE_28NM, 6)
        assert stack.layer("M6").r_per_um < stack.layer("M1").r_per_um

    def test_wire_scale_multiplies_rc(self):
        base = default_stack(NODE_28NM, 6, wire_scale=1.0)
        scaled = default_stack(NODE_28NM, 6, wire_scale=4.0)
        for b, s in zip(base, scaled):
            assert s.r_per_um == pytest.approx(4.0 * b.r_per_um)
            assert s.c_per_um == pytest.approx(4.0 * b.c_per_um)

    def test_16nm_lower_metals_scaled_up(self):
        s16 = default_stack(NODE_16NM, 6, wire_scale=1.0)
        s28 = default_stack(NODE_28NM, 6, wire_scale=1.0)
        assert s16.layer("M1").r_per_um > s28.layer("M1").r_per_um
        # Thick top metals are node-independent.
        assert s16.layer("M6").r_per_um == pytest.approx(
            s28.layer("M6").r_per_um)

    def test_describe_span(self):
        stack = default_stack(NODE_28NM, 6)
        assert stack.describe_span(1, 4) == "M1-4"
        assert stack.describe_span(6, 6) == "M6"

    def test_bad_layer_lookup(self):
        stack = default_stack(NODE_28NM, 6)
        with pytest.raises(TechError):
            stack.layer("M9")
        with pytest.raises(TechError):
            stack.layer(0)

    def test_invalid_stack_depth(self):
        with pytest.raises(TechError):
            default_stack(NODE_28NM, 1)
        with pytest.raises(TechError):
            default_stack(NODE_28NM, 99)


class TestF2F:
    def test_paper_defaults(self):
        via = F2FVia()
        assert via.size_um == 0.5
        assert via.pitch_um == 1.0
        assert via.resistance == 0.5
        assert via.capacitance == 0.2

    def test_rejects_nonpositive(self):
        with pytest.raises(TechError):
            F2FVia(resistance=0.0)


class TestCells:
    def test_delay_is_linear_in_load(self):
        inv = build_library(NODE_28NM).get("INV")
        d0 = inv.delay_ps(0.0)
        d10 = inv.delay_ps(10.0)
        d20 = inv.delay_ps(20.0)
        assert d0 == pytest.approx(inv.intrinsic_ps)
        assert (d20 - d10) == pytest.approx(d10 - d0)

    def test_negative_load_rejected(self):
        inv = build_library(NODE_28NM).get("INV")
        with pytest.raises(TechError):
            inv.delay_ps(-1.0)

    @pytest.mark.parametrize("name,ins,expected", [
        ("INV", (0,), 1), ("INV", (1,), 0),
        ("BUF", (1,), 1),
        ("NAND2", (1, 1), 0), ("NAND2", (1, 0), 1),
        ("NOR2", (0, 0), 1), ("NOR2", (0, 1), 0),
        ("XOR2", (1, 0), 1), ("XOR2", (1, 1), 0),
        ("XNOR2", (1, 1), 1),
        ("AOI21", (1, 1, 0), 0), ("AOI21", (0, 0, 0), 1),
        ("OAI21", (0, 0, 1), 1), ("OAI21", (1, 0, 1), 0),
        ("MUX2", (1, 0, 0), 1), ("MUX2", (1, 0, 1), 0),
        ("MAJ3", (1, 1, 0), 1), ("MAJ3", (1, 0, 0), 0),
        ("XOR3", (1, 1, 1), 1), ("XOR3", (1, 1, 0), 0),
        ("AND3", (1, 1, 1), 1), ("OR3", (0, 0, 1), 1),
    ])
    def test_logic_functions(self, name, ins, expected):
        ones = np.uint64(0xFFFFFFFFFFFFFFFF)
        lib = build_library(NODE_28NM)
        words = [ones if b else np.uint64(0) for b in ins]
        out = lib.get(name).evaluate(*words)
        assert int(out & np.uint64(1)) == expected

    def test_wrong_arity_rejected(self):
        inv = build_library(NODE_28NM).get("INV")
        with pytest.raises(TechError):
            inv.evaluate(np.uint64(0), np.uint64(0))

    def test_macro_has_no_logic(self):
        sram = build_library(NODE_28NM).get("SRAM_1KX32")
        with pytest.raises(TechError):
            sram.evaluate(*([np.uint64(0)] * 5))

    def test_sequential_cells_flagged(self):
        lib = build_library(NODE_28NM)
        assert lib.get("DFF").is_sequential
        assert lib.get("SDFF").is_scannable
        assert lib.get("LVLSHIFT").is_level_shifter
        assert lib.get("SRAM_1KX32").is_macro

    def test_pins_include_clock_and_output(self):
        dff = build_library(NODE_28NM).get("DFF")
        names = [p.name for p in dff.pins()]
        assert names == ["D", "CK", "Q"]


class TestLibrary:
    def test_scaling_16_vs_28(self):
        lib16 = build_library(NODE_16NM)
        lib28 = build_library(NODE_28NM)
        assert lib16.get("NAND2").intrinsic_ps < lib28.get("NAND2").intrinsic_ps
        assert lib16.get("NAND2").area_um2 < lib28.get("NAND2").area_um2

    def test_macro_delay_scales_sqrt(self):
        lib16 = build_library(NODE_16NM)
        lib28 = build_library(NODE_28NM)
        ratio = lib16.get("SRAM_1KX32").intrinsic_ps \
            / lib28.get("SRAM_1KX32").intrinsic_ps
        assert ratio == pytest.approx(NODE_16NM.delay_scale ** 0.5)

    def test_unknown_cell(self):
        with pytest.raises(TechError, match="not in"):
            build_library(NODE_28NM).get("NAND99")

    def test_combinational_excludes_seq_and_macro(self):
        lib = build_library(NODE_28NM)
        names = {c.name for c in lib.combinational()}
        assert "NAND2" in names
        assert "DFF" not in names
        assert "SRAM_1KX32" not in names

    def test_reference_cells_have_unique_names(self):
        cells = reference_cells()
        assert len({c.name for c in cells}) == len(cells)

    def test_library_container_protocol(self):
        lib = build_library(NODE_28NM)
        assert "INV" in lib
        assert len(lib) == len(list(lib))
        assert "INV" in lib.names()
