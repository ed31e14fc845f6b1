"""Timing-path datasets for pretraining and fine-tuning.

The paper pretrains DGI on unlabeled paths, then fine-tunes on ~500
STA-labeled paths per design.  :func:`build_dataset` extracts the K
worst paths, converts them (hypergraph fold), attaches oracle labels
to the requested subset, and fits the feature normalizer on the
training split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.design import Design
from repro.errors import FlowError
from repro.core.features import NodeFeatureExtractor
from repro.core.hypergraph import PathGraph, build_path_graph
from repro.mls.oracle import NetLabel, oracle_labels
from repro.route.router import GlobalRouter, RoutingResult
from repro.timing.paths import extract_worst_paths
from repro.timing.sta import TimingReport


@dataclass
class PathDataset:
    """Converted paths plus the fitted extractor and label map."""

    graphs: list[PathGraph]
    labeled_graphs: list[PathGraph]
    extractor: NodeFeatureExtractor
    net_labels: dict[str, NetLabel]
    _normalized: list[np.ndarray] | None = field(
        default=None, repr=False, compare=False)
    _normalized_by_id: dict[int, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        return sum(g.depth for g in self.graphs)

    def normalized(self, graphs: list[PathGraph] | None = None
                   ) -> list[np.ndarray]:
        """Normalized feature matrices, computed once per graph.

        DGI pretraining, fine-tuning and batched inference all start
        from ``extractor.normalize(g.features)``; this caches the
        result for the dataset's own graphs (keyed by object identity,
        which is stable while ``self.graphs`` holds them) so the three
        legs share one precompute.  Graphs outside the dataset — e.g.
        fresh path sets from the refine loop — normalize on the fly.
        """
        if self._normalized is None:
            self._normalized = [self.extractor.normalize(g.features)
                                for g in self.graphs]
            self._normalized_by_id = {
                id(g): m for g, m in zip(self.graphs, self._normalized)}
        if graphs is None:
            return self._normalized
        out: list[np.ndarray] = []
        for g in graphs:
            cached = self._normalized_by_id.get(id(g))
            out.append(cached if cached is not None
                       else self.extractor.normalize(g.features))
        return out

    def label_balance(self) -> float:
        """Fraction of positive labels among labeled nodes."""
        pos = tot = 0
        for g in self.labeled_graphs:
            assert g.labels is not None
            pos += int(g.labels[g.decidable].sum())
            tot += int(g.decidable.sum())
        return pos / tot if tot else 0.0


def build_dataset(design: Design, router: GlobalRouter,
                  result: RoutingResult, report: TimingReport,
                  num_paths: int = 2000, num_labeled: int = 500,
                  extra_features: bool = True) -> PathDataset:
    """Extract, convert and label paths from the no-MLS baseline.

    The *num_labeled* worst paths get per-net oracle labels (paper:
    500 labeled paths per design); all *num_paths* feed DGI.
    """
    if num_labeled > num_paths:
        raise FlowError("num_labeled cannot exceed num_paths")
    extractor = NodeFeatureExtractor(design, extra_features=extra_features)
    paths = extract_worst_paths(report, k=num_paths)
    graphs = [build_path_graph(p, extractor) for p in paths
              if len(p.stages()) >= 2]
    if not graphs:
        raise FlowError("no usable timing paths extracted")

    # Label the nets on the worst paths with the what-if oracle.
    labeled = graphs[:num_labeled]
    wanted: set[str] = set()
    for g in labeled:
        for name, ok in zip(g.net_names, g.decidable):
            if ok:
                wanted.add(name)
    nets = [design.netlist.net(n) for n in sorted(wanted)]
    labels = oracle_labels(design, router, result, nets=nets)
    for g in labeled:
        g.labels = np.array(
            [1.0 if (name in labels and labels[name].helps) else 0.0
             for name in g.net_names], dtype=np.float64)

    matrix = np.vstack([g.features for g in graphs])
    extractor.fit_normalizer(matrix)
    return PathDataset(graphs=graphs, labeled_graphs=labeled,
                       extractor=extractor, net_labels=labels)
