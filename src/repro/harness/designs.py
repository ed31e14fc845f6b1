"""Canonical benchmark specifications.

Maps the paper's benchmarks to simulator-scale equivalents.  Target
frequencies are re-calibrated for the scaled technology so the no-MLS
baseline violates *shallowly* (paper regime: WNS around -20 % of the
period, e.g. -85 ps at 400 ps) — EXPERIMENTS.md records the paper's
nominal targets next to ours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.flow import FlowConfig
from repro.design import TechSetup
from repro.errors import FlowError
from repro.netlist.generators import (A7Config, MaeriConfig,
                                      generate_a7_dual_core, generate_maeri)
from repro.parallel import ParallelConfig
from repro.rng import SeedBundle

#: Default experiment seed — every table reproduces bit-identically.
DEFAULT_EXPERIMENT_SEED = 20250706


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark design + integration context."""

    key: str
    paper_name: str
    logic_node: str
    memory_node: str
    beol_layers: int
    target_freq_mhz: float          # our calibrated target
    paper_target_mhz: float         # what the paper's tables print
    factory: Callable
    activity: float = 0.15
    num_paths: int = 800
    num_labeled: int = 300

    def tech(self) -> TechSetup:
        return TechSetup.build(self.logic_node, self.memory_node,
                               self.beol_layers)

    def seeds(self, seed: int = DEFAULT_EXPERIMENT_SEED) -> SeedBundle:
        return SeedBundle(seed)

    def flow_config(self, selector: str, with_scan: bool = False,
                    dft_strategy: str | None = None,
                    parallel: ParallelConfig | None = None,
                    freq_mhz: float | None = None) -> FlowConfig:
        """The :class:`FlowConfig` of one flow on this benchmark — the
        one builder behind CLI runs, table rows and daemon requests, so
        equal requests share content keys.  *freq_mhz* overrides the
        calibrated target clock."""
        return FlowConfig(
            selector=selector,
            target_freq_mhz=self.target_freq_mhz if freq_mhz is None
            else freq_mhz,
            num_paths=self.num_paths,
            num_labeled=self.num_labeled,
            with_scan=with_scan,
            dft_strategy=dft_strategy,
            activity=self.activity,
            parallel=parallel or ParallelConfig(),
        )

    @property
    def is_heterogeneous(self) -> bool:
        return self.logic_node != self.memory_node


def _maeri_factory(pe: int, bw: int):
    def factory(libraries, seeds):
        return generate_maeri(MaeriConfig(pe_count=pe, bandwidth=bw),
                              libraries, seeds)
    return factory


def _a7_factory(**kwargs):
    def factory(libraries, seeds):
        return generate_a7_dual_core(A7Config(**kwargs), libraries, seeds)
    return factory


BENCHMARKS: dict[str, BenchmarkSpec] = {
    # -- heterogeneous (Table IV): 16 nm logic + 28 nm memory ---------------
    "maeri128_hetero": BenchmarkSpec(
        key="maeri128_hetero",
        paper_name="MAERI 128PE 32BW (hetero)",
        logic_node="16nm", memory_node="28nm", beol_layers=6,
        target_freq_mhz=1500.0, paper_target_mhz=2500.0,
        factory=_maeri_factory(128, 32),
        activity=0.25,
    ),
    "a7_hetero": BenchmarkSpec(
        key="a7_hetero",
        paper_name="A7 Dual-Core (hetero)",
        logic_node="16nm", memory_node="28nm", beol_layers=8,
        target_freq_mhz=1000.0, paper_target_mhz=2000.0,
        factory=_a7_factory(word_width=24, stage_depth=10, cache_banks=6),
        activity=0.10,
    ),
    # -- homogeneous (Table V): 28 nm logic + 28 nm memory --------------------
    "maeri256_homo": BenchmarkSpec(
        key="maeri256_homo",
        paper_name="MAERI 256PE 64BW (homo)",
        logic_node="28nm", memory_node="28nm", beol_layers=6,
        target_freq_mhz=850.0, paper_target_mhz=2500.0,
        factory=_maeri_factory(256, 64),
        activity=0.25,
        num_paths=600, num_labeled=250,
    ),
    "a7_homo": BenchmarkSpec(
        key="a7_homo",
        paper_name="A7 Dual-Core (homo)",
        logic_node="28nm", memory_node="28nm", beol_layers=8,
        target_freq_mhz=800.0, paper_target_mhz=2000.0,
        factory=_a7_factory(word_width=24, stage_depth=10, cache_banks=6),
        activity=0.10,
    ),
    # -- small fabric for Table I / Table III / the Section II motivation ----
    "maeri16_hetero": BenchmarkSpec(
        key="maeri16_hetero",
        paper_name="MAERI 16PE 4BW (hetero)",
        logic_node="16nm", memory_node="28nm", beol_layers=6,
        target_freq_mhz=1900.0, paper_target_mhz=2500.0,
        factory=_maeri_factory(16, 8),
        activity=0.25,
        num_paths=400, num_labeled=200,
    ),
}


def get_benchmark(key: str) -> BenchmarkSpec:
    try:
        return BENCHMARKS[key]
    except KeyError:
        raise FlowError(f"unknown benchmark {key!r}; "
                        f"known: {sorted(BENCHMARKS)}") from None
