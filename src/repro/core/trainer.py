"""Training orchestration (Algorithm 1).

Stage 1: DGI pretraining of the Graph Transformer on all extracted
paths (unlabeled).  Stage 2: supervised fine-tuning of the 2-layer
MLP head — and, with a reduced learning rate, the encoder — on the
oracle-labeled paths.  Loss is masked to *decidable* nodes (2-D nets)
and positively re-weighted for the label imbalance.

Both stages and inference run over zero-padded (B, L, D) minibatches
by default (``TrainConfig.batch_size``): graphs are length-bucketed
per epoch from the shuffle the ``finetune``/``dgi`` seed streams draw,
padding rows contribute exact zeros through the masked attention/
reduction stack, and one optimizer step covers each batch.  Each
batched encoder forward is one fused autograd node
(:mod:`repro.nn.fused`), bit-identical to the op-by-op graph;
inference uses its forward-only entry.  Two escape hatches recover
the historical behavior: ``batch_size=1`` reproduces the per-graph
schedule exactly, and ``vectorized=False`` computes the *same*
minibatch loss with per-graph op-by-op forwards and gradient
accumulation — the reference implementation the equivalence tests
and ``benchmarks/bench_select.py`` gate against.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.core.batching import (length_bucketed_batches, pad_batch,
                                 pad_rows)
from repro.core.classifier import DecisionHead
from repro.core.dgi import DGIPretrainer
from repro.core.encoder import EncoderConfig, GraphTransformer
from repro.core.hypergraph import PathGraph
from repro.core.pathset import PathDataset
from repro.errors import TrainingError
from repro.nn.functional import (binary_cross_entropy_with_logits,
                                 masked_bce_with_logits)
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.obs import metrics, trace
from repro.rng import SeedBundle


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for both stages."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    head_hidden: int = 32
    dgi_epochs: int = 4
    dgi_lr: float = 1e-3
    finetune_epochs: int = 12
    finetune_lr: float = 2e-3
    encoder_finetune_lr: float = 2e-4
    use_dgi: bool = True           # ablation knob
    #: Graphs per padded minibatch (forward/backward/optimizer step).
    #: 1 retains the per-graph reference schedule exactly.
    batch_size: int = 16
    #: False routes every minibatch through per-graph op-by-op
    #: forwards with gradient accumulation instead of the fused padded
    #: (B, L, D) kernel — same math within float tolerance, the
    #: benchmark's reference leg.
    vectorized: bool = True

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


class GnnMlsModel:
    """Encoder + head + the dataset's normalizer, ready for inference."""

    def __init__(self, encoder: GraphTransformer, head: DecisionHead,
                 dataset: PathDataset, config: TrainConfig):
        self.encoder = encoder
        self.head = head
        self.dataset = dataset
        self.config = config
        self.history: dict[str, list[float]] = {}

    def node_probabilities(self, graph: PathGraph) -> np.ndarray:
        """Per-node MLS probability for one path graph."""
        normalized = self.dataset.extractor.normalize(graph.features)
        embeddings = self.encoder(Tensor(normalized))
        return self.head.probabilities(embeddings)

    def _node_probabilities_all(self, graphs: list[PathGraph]
                                ) -> list[np.ndarray]:
        """Per-node probabilities for every graph, batched when the
        config allows; the returned list aligns with *graphs*."""
        if not (self.config.vectorized and self.config.batch_size > 1):
            return [self.node_probabilities(g) for g in graphs]
        mats = self.dataset.normalized(graphs)
        lengths = np.array([m.shape[0] for m in mats], dtype=np.int64)
        batches = length_bucketed_batches(
            lengths, np.arange(len(mats), dtype=np.int64),
            self.config.batch_size)
        out: list[np.ndarray | None] = [None] * len(mats)
        for batch_idx in batches:
            batch, mask = pad_batch([mats[int(i)] for i in batch_idx])
            logits = self.head(Tensor(self.encoder.infer(batch, mask)))
            probs = logits.sigmoid().data[:, :, 0]
            for row, idx in enumerate(batch_idx):
                out[int(idx)] = probs[row, : lengths[int(idx)]]
        return out

    def net_probabilities(self, graphs: list[PathGraph]
                          ) -> dict[str, float]:
        """Aggregate node probabilities per net (mean over paths).

        A net can appear on many paths; averaging its per-occurrence
        scores is the consensus rule the decision stage thresholds.
        The forward runs over length-bucketed padded batches and the
        per-net mean is gathered with index arrays — the float sums
        visit occurrences in the same order the per-graph dict loop
        did, so the aggregation itself is exact.
        """
        with trace.span("select.infer", graphs=len(graphs)) as span:
            probs_per_graph = self._node_probabilities_all(graphs)
            index: dict[str, int] = {}
            ids = np.empty(sum(g.depth for g in graphs), dtype=np.int64)
            pos = 0
            for graph in graphs:
                for name in graph.net_names:
                    ids[pos] = index.setdefault(name, len(index))
                    pos += 1
            if not index:
                return {}
            flat_p = np.concatenate(probs_per_graph) \
                if probs_per_graph else np.empty(0)
            flat_ok = np.concatenate([g.decidable for g in graphs])
            totals = np.zeros(len(index))
            counts = np.zeros(len(index), dtype=np.int64)
            np.add.at(totals, ids[flat_ok], flat_p[flat_ok])
            np.add.at(counts, ids[flat_ok], 1)
            span.set(nets=len(index))
            metrics.inc("select.infer.graphs", len(graphs))
            return {name: totals[i] / counts[i]
                    for name, i in index.items() if counts[i]}


def _finetune(dataset: PathDataset, encoder: GraphTransformer,
              head: DecisionHead, config: TrainConfig,
              rng_ft: np.random.Generator, pos_weight: float,
              log=None) -> list[float]:
    """The supervised stage; returns per-epoch mean losses."""
    head_opt = Adam(head.parameters(), lr=config.finetune_lr)
    enc_opt = Adam(encoder.parameters(), lr=config.encoder_finetune_lr)
    graphs = dataset.labeled_graphs
    mats = dataset.normalized(graphs)
    lengths = np.array([m.shape[0] for m in mats], dtype=np.int64)
    use_padded = config.vectorized and config.batch_size > 1
    losses: list[float] = []
    for epoch in range(config.finetune_epochs):
        order = rng_ft.permutation(len(mats))
        batches = length_bucketed_batches(
            lengths, order, config.batch_size,
            rng=rng_ft if config.batch_size > 1 else None)
        total = 0.0
        used = 0
        with trace.span("select.finetune.epoch", epoch=epoch,
                        batches=len(batches)) as span:
            for batch_idx in batches:
                picked = [graphs[int(i)] for i in batch_idx]
                valid = [g for g in picked if g.decidable.any()]
                if not valid:
                    continue
                head_opt.zero_grad()
                enc_opt.zero_grad()
                if use_padded:
                    feats = [mats[int(i)] for i in batch_idx]
                    batch, mask = pad_batch(feats)
                    length = batch.shape[1]
                    labels = pad_rows([g.labels for g in picked], length)
                    dec = pad_rows([g.decidable for g in picked],
                                   length, dtype=bool)
                    emb = encoder(Tensor(batch), mask)
                    logits = head(emb).reshape(len(picked), length)
                    loss = masked_bce_with_logits(
                        logits, labels, dec & mask,
                        pos_weight=pos_weight)
                    loss.backward()
                    total += float(loss.data) * len(valid)
                else:
                    seed = 1.0 / len(valid)
                    for idx in batch_idx:
                        graph = graphs[int(idx)]
                        assert graph.labels is not None
                        gmask = graph.decidable
                        if not gmask.any():
                            continue
                        embeddings = encoder(Tensor(mats[int(idx)]))
                        logits = head(embeddings)[gmask]
                        targets = Tensor(graph.labels[gmask][:, None])
                        loss = binary_cross_entropy_with_logits(
                            logits, targets, pos_weight=pos_weight)
                        loss.backward(np.full_like(loss.data, seed))
                        total += float(loss.data)
                head_opt.step()
                enc_opt.step()
                used += len(valid)
            mean = total / max(used, 1)
            span.set(loss=round(mean, 6))
        metrics.observe("select.finetune.epoch_loss", mean)
        metrics.inc("select.finetune.batches", len(batches))
        losses.append(mean)
        if log is not None:
            log(f"fine-tune epoch {epoch}: loss {mean:.4f}")
    return losses


def train_gnn_mls(dataset: PathDataset, seeds: SeedBundle,
                  config: TrainConfig | None = None,
                  log=None) -> GnnMlsModel:
    """Run Algorithm 1 on *dataset*; returns the trained model."""
    config = config or TrainConfig()
    if not dataset.labeled_graphs:
        raise TrainingError("dataset has no labeled paths to fine-tune on")
    enc_cfg = config.encoder
    if enc_cfg.in_dim != dataset.extractor.dim:
        enc_cfg = dataclasses.replace(enc_cfg,
                                      in_dim=dataset.extractor.dim)
    rng = seeds.fresh("gnn-init")
    encoder = GraphTransformer(enc_cfg, rng)
    head = DecisionHead(enc_cfg.d_model, config.head_hidden, rng)
    model = GnnMlsModel(encoder, head, dataset, config)

    if config.use_dgi:
        pretrainer = DGIPretrainer(encoder, seeds.fresh("dgi"))
        model.history["dgi"] = pretrainer.pretrain(
            dataset.graphs, dataset.extractor.normalize,
            epochs=config.dgi_epochs, lr=config.dgi_lr, log=log,
            batch_size=config.batch_size,
            vectorized=config.vectorized,
            mats=dataset.normalized())

    # Fine-tune: head at full LR, encoder at a reduced LR.
    balance = dataset.label_balance()
    pos_weight = min(10.0, (1.0 - balance) / max(balance, 0.02))
    model.history["finetune"] = _finetune(
        dataset, encoder, head, config, seeds.fresh("finetune"),
        pos_weight, log=log)
    return model
