"""Structural Verilog writer/parser round-trip tests."""

import pytest

from repro.errors import NetlistError, TechError
from repro.netlist.generators import MaeriConfig, generate_maeri
from repro.netlist.verilog import dumps, read_verilog, write_verilog
from repro.tech import NODE_28NM, build_library

from tests.conftest import make_chain_netlist

LIB = build_library(NODE_28NM)


def _signature(netlist):
    """Connectivity-complete signature for equality checks."""
    insts = sorted(
        (name, inst.cell.name,
         tuple(sorted((p.name, p.net.name) for p in inst.pins.values()
                      if p.net is not None)))
        for name, inst in netlist.instances.items())
    ports = sorted((p.name, p.direction, p.false_path,
                    p.pin.net.name if p.pin.net else None)
                   for p in netlist.ports.values())
    nets = sorted((n.name, n.is_clock) for n in netlist.nets.values())
    return insts, ports, nets


class TestRoundTrip:
    def test_chain_roundtrip(self, hetero_tech, tmp_path):
        nl = make_chain_netlist(hetero_tech, stages=3)
        path = tmp_path / "chain.v"
        write_verilog(nl, path)
        back = read_verilog(path, hetero_tech.libraries["logic"])
        assert _signature(back) == _signature(nl)

    def test_maeri_roundtrip_with_attrs(self, hetero_tech, tmp_path):
        nl = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                            hetero_tech.libraries, 5)
        path = tmp_path / "maeri.v"
        write_verilog(nl, path)
        # Hetero designs read back against the full library dict; each
        # instance resolves in the library its region attr names.
        back = read_verilog(path, hetero_tech.libraries)
        assert len(back.instances) == len(nl.instances)
        assert len(back.nets) == len(nl.nets)
        # Region attrs survive.
        some = next(n for n, i in nl.instances.items()
                    if i.attrs.get("region") == "memory")
        assert back.instance(some).attrs["region"] == "memory"

    def test_multi_library_resolves_per_region(self, hetero_tech,
                                               tmp_path):
        """A 16nm INV and a 28nm INV share a name but not electrical
        models — the importer must pick the region's library, not a
        merged namespace."""
        nl = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                            hetero_tech.libraries, 5)
        path = tmp_path / "maeri.v"
        write_verilog(nl, path)
        back = read_verilog(path, hetero_tech.libraries)
        for name, orig in nl.instances.items():
            region = orig.attrs.get("region", "logic")
            expected = hetero_tech.libraries[region].get(orig.cell.name)
            assert back.instance(name).cell is expected

    def test_imported_netlist_flat_roundtrip(self, hetero_tech, tmp_path):
        """Imported netlists go through the same flat (SoA) pickle as
        generated ones — exact structural round trip."""
        import pickle

        from tests.golden_util import netlist_digest
        nl = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                            hetero_tech.libraries, 5)
        path = tmp_path / "maeri.v"
        write_verilog(nl, path)
        imported = read_verilog(path, hetero_tech.libraries)
        restored = pickle.loads(pickle.dumps(imported))
        assert netlist_digest(restored) == netlist_digest(imported)
        assert list(restored.instances) == list(imported.instances)

    def test_clock_marking_survives(self, hetero_tech, tmp_path):
        nl = make_chain_netlist(hetero_tech)
        path = tmp_path / "c.v"
        write_verilog(nl, path)
        back = read_verilog(path, hetero_tech.libraries["logic"])
        assert back.net("clk").is_clock

    def test_escaped_identifiers(self, hetero_tech, tmp_path):
        nl = make_chain_netlist(hetero_tech)
        text = dumps(nl)
        # Hierarchical names like 'launch_1' are plain, but generator
        # names with '/' must be escaped.
        nl2 = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                             hetero_tech.libraries, 5)
        text2 = dumps(nl2)
        assert "\\pe0/" in text2
        assert text.count("module ") == 1  # one module decl (+ endmodule)


class TestFlowImport:
    def test_flow_runs_on_imported_verilog(self, tmp_path, capsys):
        """export -> flow --verilog matches the generate path's contract:
        the full flow (partition/place/route/STA) runs on the import."""
        from repro.cli import main
        out_file = tmp_path / "m16.v"
        assert main(["export", "--benchmark", "maeri16_hetero",
                     "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert main(["flow", "--benchmark", "maeri16_hetero",
                     "--selector", "none",
                     "--verilog", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "wns_ps" in out
        assert f"import {out_file}" in out

    def test_rewritten_file_is_a_new_design(self, tmp_path, capsys):
        """Regression: the import's keys followed the path, not the
        bytes, so rewriting the file with another seed's netlist
        replayed the old design's flow from the store."""
        from repro.cli import main
        from repro.obs import metrics
        design, store = tmp_path / "design.v", tmp_path / "store"
        puts = metrics.counter("store.puts.flow.report")
        rows = []
        for seed in ("1", "2"):
            assert main(["export", "--benchmark", "maeri16_hetero",
                         "--seed", seed, "--out", str(design)]) == 0
            capsys.readouterr()
            assert main(["flow", "--benchmark", "maeri16_hetero",
                         "--selector", "none", "--verilog", str(design),
                         "--store", str(store)]) == 0
            rows.append([line for line in
                         capsys.readouterr().out.splitlines()
                         if "runtime_min" not in line])
        assert metrics.counter("store.puts.flow.report") - puts == 2
        assert rows[0] != rows[1]

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main
        missing = tmp_path / "missing.v"
        with pytest.raises(SystemExit) as exc:
            main(["flow", "--benchmark", "maeri16_hetero",
                  "--selector", "none", "--verilog", str(missing)])
        assert exc.value.code == 2
        assert str(missing) in capsys.readouterr().err


class TestParserErrors:
    def test_unknown_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.v"
        path.write_text(
            "module m (a, y);\n  input a;\n  output y;\n"
            "  wire n1;\n  wire n2;\n"
            "  assign n1 = a;\n  assign y = n2;\n"
            "  MYSTERY u0 (.A(n1), .Y(n2));\nendmodule\n")
        with pytest.raises(TechError):
            read_verilog(path, LIB)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.v"
        path.write_text("this is @ not ! verilog")
        with pytest.raises(NetlistError):
            read_verilog(path, LIB)

    def test_unknown_region_rejected(self, hetero_tech, tmp_path):
        path = tmp_path / "bad_region.v"
        path.write_text(
            "module m (a, y);\n  input a;\n  output y;\n"
            "  wire n1;\n  wire n2;\n"
            "  assign n1 = a;\n  assign y = n2;\n"
            "  (* region = \"analog\" *)\n"
            "  INV u0 (.A(n1), .Y(n2));\nendmodule\n")
        with pytest.raises(TechError, match="analog"):
            read_verilog(path, hetero_tech.libraries)
        # A bare library ignores region attrs entirely (legacy shape).
        nl = read_verilog(path, LIB)
        assert nl.instance("u0").attrs["region"] == "analog"

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.v"
        path.write_text(
            "// line comment\nmodule m (a, y);\n"
            "  input a;\n  output y;\n"
            "  /* block\n     comment */\n"
            "  wire n1;\n  wire n2;\n"
            "  assign n1 = a;\n  assign y = n2;\n"
            "  INV u0 (.A(n1), .Y(n2));\nendmodule\n")
        nl = read_verilog(path, LIB)
        assert "u0" in nl.instances
