"""Training orchestration (Algorithm 1).

Stage 1: DGI pretraining of the Graph Transformer on all extracted
paths (unlabeled).  Stage 2: supervised fine-tuning of the 2-layer
MLP head — and, with a reduced learning rate, the encoder — on the
oracle-labeled paths.  Loss is masked to *decidable* nodes (2-D nets)
and positively re-weighted for the label imbalance.

Both stages and inference run over zero-padded (B, L, D) minibatches
(``TrainConfig.batch_size``, 1 included): graphs are length-bucketed
per epoch from the shuffle the ``finetune``/``dgi`` seed streams draw,
padding rows contribute exact zeros through the masked attention/
reduction stack, and one optimizer step covers each batch; a batch's
loss graph is dropped once its step has run, so it never lives
through the next batch's forward.  Each batched encoder forward is
one fused autograd node (:mod:`repro.nn.fused`), and each objective
(head plus masked BCE, or the DGI readout and loss) one more on top
of it, bit-identical to the op-by-op graphs; inference runs the
encoder's forward-only entry and the head as plain NumPy.  One
minibatch's loss is :func:`finetune_loss_for_batch` (fine-tuning) or
:meth:`DGIPretrainer.loss_for_batch` (pretraining), and one batch's
probabilities :meth:`GnnMlsModel.batch_probabilities`.  Both stages
step the flat-buffer :class:`~repro.nn.optim.Adam`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batching import (length_bucketed_batches, pad_batch,
                                 pad_rows)
from repro.core.classifier import DecisionHead
from repro.core.dgi import DGIPretrainer
from repro.core.encoder import EncoderConfig, GraphTransformer
from repro.core.hypergraph import PathGraph
from repro.core.pathset import PathDataset
from repro.errors import TrainingError
from repro.nn import fused
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.obs import metrics, trace
from repro.rng import stream


#: Hidden width of the 2-layer MLP decision head.
HEAD_HIDDEN = 32

#: Adam learning rates: DGI pretraining, then fine-tuning with the
#: head at full rate and the encoder at a reduced one.
DGI_LR = 1e-3
FINETUNE_LR = 2e-3
ENCODER_FINETUNE_LR = 2e-4


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for both stages; the encoder is the paper's
    :class:`EncoderConfig` over the dataset's feature width."""

    dgi_epochs: int = 4
    finetune_epochs: int = 12
    use_dgi: bool = True           # ablation knob
    #: Graphs per padded minibatch (forward/backward/optimizer step).
    #: 1 keeps the epoch's shuffled visit order, one graph per step.
    batch_size: int = 16

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

    def batch_probabilities(self, batch: np.ndarray,
                            mask: np.ndarray) -> np.ndarray:
        """(B, L) MLS probabilities of a padded, normalized batch."""
        return fused.head_probabilities(self.head.mlp,
                                        self.encoder.infer(batch, mask))

    def _node_probabilities_all(self, graphs: list[PathGraph]
                                ) -> list[np.ndarray]:
        """Per-node probabilities for every graph over length-bucketed
        batches; the returned list aligns with *graphs*."""
        mats = self.dataset.normalized(graphs)
        lengths = np.array([m.shape[0] for m in mats], dtype=np.int64)
        batches = length_bucketed_batches(
            lengths, np.arange(len(mats), dtype=np.int64),
            self.config.batch_size)
        out: list[np.ndarray | None] = [None] * len(mats)
        for batch_idx in batches:
            probs = self.batch_probabilities(
                *pad_batch([mats[int(i)] for i in batch_idx]))
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


def finetune_loss_for_batch(encoder: GraphTransformer,
                            head: DecisionHead, mats: list[np.ndarray],
                            graphs: list[PathGraph],
                            pos_weight: float) -> Tensor:
    """Masked BCE of one padded minibatch: each graph's mean over its
    decidable nodes, averaged over graphs that have any."""
    batch, mask = pad_batch(mats)
    length = batch.shape[1]
    labels = pad_rows([g.labels for g in graphs], length)
    dec = pad_rows([g.decidable for g in graphs], length, dtype=bool)
    return fused.head_bce_loss(encoder(Tensor(batch), mask), head.mlp,
                               labels, dec & mask, pos_weight)


def _finetune(dataset: PathDataset, encoder: GraphTransformer,
              head: DecisionHead, config: TrainConfig,
              rng_ft: np.random.Generator, pos_weight: float,
              log=None) -> list[float]:
    """The supervised stage; returns per-epoch mean losses."""
    head_opt = Adam(head.parameters(), lr=FINETUNE_LR)
    enc_opt = Adam(encoder.parameters(), lr=ENCODER_FINETUNE_LR)
    graphs = dataset.labeled_graphs
    mats = dataset.normalized(graphs)
    lengths = np.array([m.shape[0] for m in mats], dtype=np.int64)
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
                valid = sum(bool(g.decidable.any()) for g in picked)
                if not valid:
                    continue
                head_opt.zero_grad()
                enc_opt.zero_grad()
                loss = finetune_loss_for_batch(
                    encoder, head, [mats[int(i)] for i in batch_idx],
                    picked, pos_weight)
                loss.backward()
                total += float(loss.data) * valid
                head_opt.step()
                enc_opt.step()
                used += valid
                # Free this batch's graph before the next forward.
                del loss
            mean = total / max(used, 1)
            span.set(loss=round(mean, 6))
        metrics.observe("select.finetune.epoch_loss", mean)
        metrics.inc("select.finetune.batches", len(batches))
        losses.append(mean)
        if log is not None:
            log(f"fine-tune epoch {epoch}: loss {mean:.4f}")
    return losses


def train_gnn_mls(dataset: PathDataset, seed: int,
                  config: TrainConfig | None = None,
                  log=None) -> GnnMlsModel:
    """Run Algorithm 1 on *dataset*; returns the trained model."""
    config = config or TrainConfig()
    if not dataset.labeled_graphs:
        raise TrainingError("dataset has no labeled paths to fine-tune on")
    enc_cfg = EncoderConfig(in_dim=dataset.extractor.dim)
    rng = stream("gnn-init", seed)
    encoder = GraphTransformer(enc_cfg, rng)
    head = DecisionHead(enc_cfg.d_model, HEAD_HIDDEN, rng)
    model = GnnMlsModel(encoder, head, dataset, config)

    if config.use_dgi:
        # No name holds the pretrainer: its discriminator is a view of
        # the DGI optimizer's flat buffer, which can then be freed as
        # soon as fine-tuning's optimizer takes the encoder over.
        model.history["dgi"] = DGIPretrainer(
            encoder, stream("dgi", seed)).pretrain(
            dataset.graphs, dataset.extractor.normalize,
            epochs=config.dgi_epochs, lr=DGI_LR, log=log,
            batch_size=config.batch_size,
            mats=dataset.normalized())

    # Fine-tune: head at full LR, encoder at a reduced LR.
    balance = dataset.label_balance()
    pos_weight = min(10.0, (1.0 - balance) / max(balance, 0.02))
    model.history["finetune"] = _finetune(
        dataset, encoder, head, config, stream("finetune", seed),
        pos_weight, log=log)
    return model
