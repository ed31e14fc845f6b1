"""Benchmark generator tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetlistError
from repro.harness.designs import BENCHMARKS
from repro.netlist.generators import (A7Config, MaeriConfig,
                                      generate_a7_dual_core, generate_maeri,
                                      random_cloud)
from repro.netlist.generators.random_logic import DEFAULT_MIX, mix_picker
from repro.netlist.builder import NetlistBuilder
from repro.rng import stream
from repro.service.keys import tech_digest

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


def _seed_cloud(builder, inputs, out_count, depth, width, rng, mix):
    """The first ``random_cloud``: ``rng.choice`` per gate and a rescan
    of the source level's unused nets on every input pick."""
    names = [m[0] for m in mix]
    weights = np.array([m[1] for m in mix], dtype=float)
    weights = weights / weights.sum()
    lib = builder.libraries[builder.current_region]
    levels = [list(inputs)]
    usage = {net.name: 0 for net in inputs}

    def pick_input(level_idx):
        source_level = levels[level_idx - 1]
        if level_idx >= 2 and rng.random() < 0.25:
            source_level = levels[level_idx - 2]
        unused = [n for n in source_level if usage.get(n.name, 1) == 0]
        pool = unused if unused and rng.random() < 0.7 else source_level
        net = pool[int(rng.integers(len(pool)))]
        usage[net.name] = usage.get(net.name, 0) + 1
        return net

    for level_idx in range(1, depth + 1):
        level = []
        for _ in range(width):
            cell_name = names[int(rng.choice(len(names), p=weights))]
            ins = [pick_input(level_idx)
                   for _ in range(lib.get(cell_name).num_inputs)]
            out = builder.gate(cell_name, *ins, hint="cl")
            usage[out.name] = 0
            level.append(out)
        levels.append(level)
    outputs = []
    for i in range(out_count):
        net = levels[-1][i % len(levels[-1])]
        usage[net.name] = usage.get(net.name, 0) + 1
        outputs.append(net)
    leftovers = [net for level in levels for net in level
                 if usage.get(net.name, 0) == 0]
    for idx, net in enumerate(leftovers):
        merged = builder.gate("XOR2", outputs[idx % out_count], net,
                              hint="cl_fold")
        usage[net.name] = usage.get(net.name, 0) + 1
        outputs[idx % out_count] = merged
    return outputs


_MIX_CELLS = ["INV", "BUF", "NAND2", "NOR2", "XOR2", "AOI21", "MUX2"]


class TestGatePicker:
    """``mix_picker`` is ``rng.choice(len(mix), p=w)``, draw for draw."""

    @staticmethod
    def _check(mix, seed: int, picks: int) -> None:
        weights = np.array([m[1] for m in mix], dtype=float)
        weights = weights / weights.sum()
        pick = mix_picker(mix)
        a, b = stream("picker", seed), stream("picker", seed)
        for i in range(picks):
            assert pick(a) == int(b.choice(len(mix), p=weights))
            if i % 3 == 0:          # other draws interleave with picks
                assert a.integers(1 + i % 7) == b.integers(1 + i % 7)
        assert a.random() == b.random()      # same generator state

    def test_default_mix(self):
        self._check(DEFAULT_MIX, 20250706, 20_000)

    @settings(max_examples=100, deadline=None)
    @given(weights=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
                            min_size=1, max_size=12)
           .filter(lambda w: sum(w) > 0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_any_mix(self, weights, seed):
        self._check([(f"g{i}", w) for i, w in enumerate(weights)], seed, 300)

    def test_ties_take_searchsorted_right(self):
        """A draw equal to a CDF entry (zero weights make ties) lands
        where ``searchsorted(side="right")`` puts it."""
        mix = [("a", 0.0), ("b", 1.0), ("c", 0.0), ("d", 0.0), ("e", 3.0)]
        weights = np.array([m[1] for m in mix])
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        pick = mix_picker(mix)

        class Draw:
            def __init__(self, u):
                self.random = lambda: u

        for u in [0.0, *cdf[:-1], 0.1, 0.5, np.nextafter(cdf[1], 0)]:
            assert pick(Draw(float(u))) \
                == int(cdf.searchsorted(u, side="right"))

    @pytest.mark.parametrize("weights", [[], [0.0, 0.0], [1.0, -0.5],
                                         [1.0, float("nan")]])
    def test_bad_mix_refused(self, weights):
        with pytest.raises(NetlistError, match="gate mix"):
            mix_picker([(f"g{i}", w) for i, w in enumerate(weights)])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           fanin=st.lists(st.integers(0, 5), min_size=1, max_size=8),
           depth=st.integers(1, 4), width=st.integers(1, 6),
           out_count=st.integers(1, 5),
           weights=st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                            min_size=len(_MIX_CELLS),
                            max_size=len(_MIX_CELLS))
           .filter(lambda w: sum(w) > 0))
    def test_cloud_matches_seed_cloud(self, hetero_tech, seed, fanin, depth,
                                      width, out_count, weights):
        """Same netlist as the first implementation, including inputs
        listed more than once."""
        mix = list(zip(_MIX_CELLS, weights))

        def build(cloud):
            builder = NetlistBuilder("rc", hetero_tech.libraries)
            ports = {k: builder.input(f"i{k}") for k in sorted(set(fanin))}
            outs = cloud(builder, [ports[k] for k in fanin], out_count,
                         depth, width, stream("cloud", seed), mix)
            for k, net in enumerate(outs):
                builder.output(f"o{k}", net)
            return netlist_digest(builder.done())

        assert build(random_cloud) == build(_seed_cloud)


class TestSeedPurity:
    """A netlist is a pure function of (factory, libraries, seed): the
    content key covers nothing else, so no call may leave state that
    moves the next one."""

    @pytest.mark.parametrize("key", sorted(BENCHMARKS))
    def test_generate_keeps_tech_digest(self, key):
        """Generating caches nothing on the tech setup's cells, so a
        prepare key derived after a generate equals one derived before."""
        spec = BENCHMARKS[key]
        tech = spec.tech()
        before = tech_digest(tech)
        spec.factory(tech.libraries, 7)
        assert tech_digest(tech) == before

    @pytest.mark.parametrize("key", sorted(BENCHMARKS))
    def test_factory_twice_same_netlist(self, key):
        spec = BENCHMARKS[key]
        libraries = spec.tech().libraries
        first = netlist_digest(spec.factory(libraries, 7))
        assert netlist_digest(spec.factory(libraries, 7)) == first
