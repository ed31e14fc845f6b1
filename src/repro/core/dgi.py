"""Deep Graph Infomax pretraining (Section III-C, Algorithm 1).

For each timing-path graph: compute node embeddings v with the Graph
Transformer, a global summary g(Y) by mean readout, and corrupted
embeddings v* from a feature-shuffled copy C(Y) (negative sampling by
perturbing node features).  A bilinear discriminator scores <v, W g>;
the loss pushes true node/summary pairs toward 1 and corrupted pairs
toward 0 through the sigmoid of Eq. 3.

Training runs over zero-padded (B, L, D) minibatches — corruption is
drawn per graph in visit order, the clean and corrupted batches share
one stacked forward through the fused encoder kernel, and the readout,
discriminator and masked loss are one more fused node on top of it
(:func:`repro.nn.fused.dgi_loss`), so padding contributes exact zeros.
One optimizer step covers the batch; the batch's loss graph is
dropped once that step has run.
"""

from __future__ import annotations

import numpy as np

from repro.core.batching import (length_bucketed_batches, pad_batch)
from repro.core.encoder import GraphTransformer
from repro.core.hypergraph import PathGraph
from repro.nn import fused
from repro.nn.init import xavier_uniform
from repro.nn.layers import Module
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.obs import metrics, trace


class DGIPretrainer(Module):
    """Owns the bilinear discriminator; trains a given encoder."""

    def __init__(self, encoder: GraphTransformer,
                 rng: np.random.Generator):
        self.encoder = encoder
        dim = encoder.config.d_model
        self.discriminator = Tensor.param(
            xavier_uniform(rng, dim, dim), name="dgi.W")
        self._rng = rng

    def corrupt(self, features: np.ndarray) -> np.ndarray:
        """Negative sample: row-shuffle + mild feature noise."""
        perm = self._rng.permutation(features.shape[0])
        noisy = features[perm].copy()
        noisy += self._rng.normal(scale=0.1, size=noisy.shape)
        return noisy

    def loss_for_batch(self, mats: list[np.ndarray]) -> Tensor:
        """DGI loss of one padded minibatch of feature matrices.

        Corruption draws per graph in list order before any forward.
        The clean and corrupted batches then run as one stacked
        (2B, L, D) forward whose two halves reduce their parameter
        gradients separately, so the loss and every gradient equal
        those of two (B, L, D) forwards; the objective on top is one
        fused node as well.
        """
        batch, mask = pad_batch(mats)
        corrupt, _ = pad_batch([self.corrupt(m) for m in mats])
        stacked = self.encoder(Tensor(np.concatenate([batch, corrupt])),
                               np.concatenate([mask, mask]), groups=2)
        return fused.dgi_loss(stacked, self.discriminator, mask)

    def pretrain(self, graphs: list[PathGraph], normalize,
                 epochs: int = 5, lr: float = 1e-3,
                 log=None, batch_size: int = 1,
                 mats: list[np.ndarray] | None = None) -> list[float]:
        """Run DGI over *graphs*; returns per-epoch mean losses.

        *normalize* maps a raw feature matrix to model inputs (the
        dataset extractor's transform); pass *mats* to reuse matrices
        the caller already normalized.  ``batch_size`` graphs share
        one forward/backward and optimizer step.
        """
        optimizer = Adam(self.parameters(), lr=lr)
        history: list[float] = []
        if mats is None:
            mats = [normalize(g.features) for g in graphs]
        lengths = np.array([m.shape[0] for m in mats], dtype=np.int64)
        for epoch in range(epochs):
            order = self._rng.permutation(len(mats))
            batches = length_bucketed_batches(
                lengths, order, batch_size,
                rng=self._rng if batch_size > 1 else None)
            total = 0.0
            with trace.span("select.dgi.epoch", epoch=epoch,
                            batches=len(batches)) as span:
                for batch_idx in batches:
                    loss = self.loss_for_batch(
                        [mats[int(i)] for i in batch_idx])
                    optimizer.zero_grad()
                    loss.backward()
                    optimizer.step()
                    total += float(loss.data) * len(batch_idx)
                    # Free this batch's graph before the next forward.
                    del loss
                mean = total / max(len(mats), 1)
                span.set(loss=round(mean, 6))
            metrics.observe("select.dgi.epoch_loss", mean)
            metrics.inc("select.dgi.batches", len(batches))
            history.append(mean)
            if log is not None:
                log(f"DGI epoch {epoch}: loss {mean:.4f}")
        return history
