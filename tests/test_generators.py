"""Benchmark generator tests."""

import pytest

from repro.errors import NetlistError
from repro.harness.designs import BENCHMARKS
from repro.netlist.generators import (A7Config, MaeriConfig,
                                      generate_a7_dual_core, generate_maeri,
                                      random_cloud)
from repro.netlist.builder import NetlistBuilder
from repro.rng import stream

from tests.golden_util import netlist_digest


class TestMaeriConfig:
    def test_defaults(self):
        cfg = MaeriConfig()
        assert cfg.pe_count == 128
        assert cfg.num_banks == 4

    def test_power_of_two_enforced(self):
        with pytest.raises(NetlistError):
            MaeriConfig(pe_count=12)

    def test_bandwidth_minimum(self):
        with pytest.raises(NetlistError):
            MaeriConfig(bandwidth=4)

    def test_display_name(self):
        assert MaeriConfig(pe_count=16, bandwidth=8).display_name \
            == "maeri_16pe_8bw"


class TestMaeriGeneration:
    @pytest.fixture(scope="class")
    def netlist(self, hetero_tech):
        return generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                              hetero_tech.libraries, 5)

    def test_validates(self, netlist):
        netlist.validate()

    def test_has_both_regions(self, netlist):
        regions = {i.attrs.get("region") for i in netlist.instances.values()}
        assert regions == {"logic", "memory"}

    def test_has_sram_macros(self, netlist):
        macros = [i for i in netlist.instances.values() if i.is_macro]
        assert len(macros) == 2 * MaeriConfig(pe_count=16,
                                              bandwidth=8).num_banks
        assert all(i.attrs["region"] == "memory" for i in macros)

    def test_has_pe_array(self, netlist):
        pes = {n.split("/")[0] for n in netlist.instances if n.startswith("pe")}
        assert len(pes) == 16

    def test_scales_with_pe_count(self, hetero_tech):
        small = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                               hetero_tech.libraries, 5)
        large = generate_maeri(MaeriConfig(pe_count=64, bandwidth=16),
                               hetero_tech.libraries, 5)
        assert len(large.instances) > 2.5 * len(small.instances)

    def test_deterministic(self, hetero_tech):
        a = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                           hetero_tech.libraries, 5)
        b = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                           hetero_tech.libraries, 5)
        assert sorted(a.instances) == sorted(b.instances)
        assert sorted(a.nets) == sorted(b.nets)

    def test_clock_net_reaches_all_flops(self, netlist):
        clk = netlist.net("clk")
        seq = netlist.sequential_instances()
        clocked = {p.owner.name for p in clk.sinks if p.owner is not None}
        assert all(i.name in clocked for i in seq)


class TestA7Generation:
    @pytest.fixture(scope="class")
    def netlist(self, hetero_tech):
        return generate_a7_dual_core(A7Config(), hetero_tech.libraries,
                                     5)

    def test_validates(self, netlist):
        netlist.validate()

    def test_two_cores(self, netlist):
        cores = {n.split("/")[0] for n in netlist.instances
                 if n.startswith("core")}
        assert {"core0", "core1"} <= cores

    def test_cache_macros_on_memory_region(self, netlist):
        macros = [i for i in netlist.instances.values() if i.is_macro]
        assert len(macros) == 2 * 2 * A7Config().cache_banks
        assert all(i.attrs["region"] == "memory" for i in macros)

    def test_pipeline_stages_present(self, netlist):
        names = set(netlist.instances)
        for stage in ("fetch", "decode", "execute", "mem", "wb"):
            assert any(f"/{stage}/" in n for n in names), stage

    def test_config_validation(self):
        with pytest.raises(NetlistError):
            A7Config(cores=0)
        with pytest.raises(NetlistError):
            A7Config(word_width=2)
        with pytest.raises(NetlistError):
            A7Config(stage_depth=1)
        with pytest.raises(NetlistError):
            A7Config(cache_banks=0)


class TestRandomCloud:
    def test_basic_shape(self, hetero_tech):
        builder = NetlistBuilder("rc", hetero_tech.libraries)
        ins = [builder.input(f"i{k}") for k in range(4)]
        outs = random_cloud(builder, ins, out_count=6, depth=4, width=8,
                            rng=stream("cloud", 3))
        assert len(outs) == 6
        for net in outs:
            builder.output(f"o_{net.name}", net)
        builder.done()     # validates: no dangling nets

    def test_deterministic(self, hetero_tech):
        def build(seed):
            builder = NetlistBuilder("rc", hetero_tech.libraries)
            ins = [builder.input(f"i{k}") for k in range(3)]
            outs = random_cloud(builder, ins, 4, 3, 6,
                                stream("cloud", seed))
            for net in outs:
                builder.output(f"o_{net.name}", net)
            nl = builder.done()
            # Signature: instance cell types + full connectivity.
            return sorted(
                (name, inst.cell.name,
                 tuple(sorted(p.net.name for p in inst.pins.values()
                              if p.net is not None)))
                for name, inst in nl.instances.items())
        assert build(1) == build(1)
        assert build(1) != build(2)

    def test_rejects_bad_params(self, hetero_tech):
        builder = NetlistBuilder("rc", hetero_tech.libraries)
        ins = [builder.input("i0")]
        with pytest.raises(NetlistError):
            random_cloud(builder, [], 1, 1, 1, stream("x", 1))
        with pytest.raises(NetlistError):
            random_cloud(builder, ins, 0, 1, 1, stream("x", 1))


class TestSeedPurity:
    """A netlist is a pure function of (factory, libraries, seed): the
    content key covers nothing else, so no call may leave state that
    moves the next one."""

    @pytest.mark.parametrize("key", sorted(BENCHMARKS))
    def test_factory_twice_same_netlist(self, key):
        spec = BENCHMARKS[key]
        libraries = spec.tech().libraries
        first = netlist_digest(spec.factory(libraries, 7))
        assert netlist_digest(spec.factory(libraries, 7)) == first
