"""Per-graph GNN selector: the trainer's and inference's oracle.

The selector trains and infers on padded (B, L, D) batches only.  This
module keeps the per-graph computation it replaced: op-by-op (N, D)
encoder forwards, per-graph BCE and DGI losses, gradients accumulated
graph by graph over the same length-bucketed minibatches, and
per-graph inference.

:func:`per_graph_reference` installs it in place of the three
per-batch seams of :mod:`repro.core` — ``DGIPretrainer.loss_for_batch``,
``trainer.finetune_loss_for_batch`` and
``GnnMlsModel.batch_probabilities`` — so ``train_gnn_mls`` and
``net_probabilities`` keep their own epoch loops, shuffles, buckets and
RNG draws and only the per-batch math changes.  The equivalence tests
and ``benchmarks/bench_select.py`` compare the two.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np

from repro.core import trainer
from repro.core.classifier import DecisionHead
from repro.core.dgi import DGIPretrainer
from repro.core.encoder import GraphTransformer
from repro.core.hypergraph import PathGraph
from repro.nn.layers import MultiHeadSelfAttention, TransformerEncoder
from repro.nn.tensor import Tensor

from tests.train_oracle import head_probabilities


def attention(attn: MultiHeadSelfAttention, x: Tensor) -> Tensor:
    """Scaled dot-product self-attention over one (N, D) sequence."""
    n = x.shape[0]
    q = attn.wq(x).reshape(n, attn.heads, attn.head_dim) \
        .transpose(1, 0, 2)
    k = attn.wk(x).reshape(n, attn.heads, attn.head_dim) \
        .transpose(1, 0, 2)
    v = attn.wv(x).reshape(n, attn.heads, attn.head_dim) \
        .transpose(1, 0, 2)
    scores = (q @ k.transpose(0, 2, 1)) * (attn.head_dim ** -0.5)
    mixed = scores.softmax(axis=-1) @ v       # (H, N, hd)
    return attn.wo(mixed.transpose(1, 0, 2).reshape(n, attn.dim))


def encoder_stack(encoder: TransformerEncoder, x: Tensor) -> Tensor:
    """Pre-LN layers (x + MHA(LN(x)); x + FFN(LN(x))), then the final
    LayerNorm, over one (N, D) sequence."""
    for layer in encoder.layers:
        x = x + attention(layer.attn, layer.ln1(x))
        x = x + layer.ff2(layer.ff1(layer.ln2(x)).relu())
    return encoder.final_ln(x)


def encode(model: GraphTransformer, features: Tensor) -> Tensor:
    """One path's (N, in_dim) features to (N, d_model) embeddings."""
    n = model._check_length(features.shape[0])
    return encoder_stack(model.encoder,
                         model.proj(features) + Tensor(model._posenc[:n]))


def bce_with_logits(logits: Tensor, targets: Tensor,
                    pos_weight: float = 1.0) -> Tensor:
    """Mean BCE on raw logits; *pos_weight* scales the positive term."""
    eps = 1e-7
    p = logits.sigmoid() * (1.0 - 2 * eps) + eps
    loss = -(targets * p.log() * pos_weight
             + (1.0 - targets) * (1.0 - p).log())
    return loss.mean()


def dgi_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """Deep Graph Infomax objective (paper Eq. 3, BCE form) of one
    graph's (N, 1) positive and corrupted scores."""
    eps = 1e-7
    pos = pos_scores.sigmoid() * (1.0 - 2 * eps) + eps
    neg = neg_scores.sigmoid() * (1.0 - 2 * eps) + eps
    return -(pos.log().mean() + (1.0 - neg).log().mean())


def dgi_graph_loss(pretrainer: DGIPretrainer, mat: np.ndarray) -> Tensor:
    """DGI loss of one graph's normalized feature matrix; draws its
    corruption from the pretrainer's RNG after the clean forward."""
    pos = encode(pretrainer.encoder, Tensor(mat))
    summary = pos.mean(axis=0, keepdims=True).tanh()        # (1, D)
    neg = encode(pretrainer.encoder, Tensor(pretrainer.corrupt(mat)))
    pos_scores = (pos @ pretrainer.discriminator) @ summary.transpose(1, 0)
    neg_scores = (neg @ pretrainer.discriminator) @ summary.transpose(1, 0)
    return dgi_loss(pos_scores, neg_scores)


def finetune_graph_loss(encoder: GraphTransformer, head: DecisionHead,
                        mat: np.ndarray, graph: PathGraph,
                        pos_weight: float) -> Tensor:
    """BCE over one graph's decidable nodes."""
    keep = graph.decidable
    logits = head(encode(encoder, Tensor(mat)))[keep]
    targets = Tensor(graph.labels[keep][:, None])
    return bce_with_logits(logits, targets, pos_weight=pos_weight)


def accumulated(losses: list[Tensor]) -> Tensor:
    """The mean of per-graph *losses* as one node whose backward runs
    each graph's own backward in turn, seeded with its 1/len share —
    gradient accumulation, graph by graph."""
    share = 1.0 / len(losses)
    node = Tensor(sum(float(loss.data) for loss in losses) * share,
                  requires_grad=True)

    def backward(grad: np.ndarray) -> None:
        for loss in losses:
            loss.backward(grad * share)

    node._backward = backward
    return node


def dgi_loss_for_batch(pretrainer: DGIPretrainer,
                       mats: list[np.ndarray]) -> Tensor:
    return accumulated([dgi_graph_loss(pretrainer, m) for m in mats])


def finetune_loss_for_batch(encoder: GraphTransformer, head: DecisionHead,
                            mats: list[np.ndarray], graphs: list[PathGraph],
                            pos_weight: float) -> Tensor:
    return accumulated([
        finetune_graph_loss(encoder, head, m, g, pos_weight)
        for m, g in zip(mats, graphs) if g.decidable.any()])


def batch_probabilities(model: trainer.GnnMlsModel, batch: np.ndarray,
                        mask: np.ndarray) -> np.ndarray:
    """Each real row of a padded batch run alone through the per-graph
    encoder and the head; padding stays zero."""
    out = np.zeros(mask.shape)
    for row, real in enumerate(mask):
        n = int(real.sum())
        embeddings = encode(model.encoder, Tensor(batch[row, :n]))
        out[row, :n] = head_probabilities(model.head, embeddings.data)
    return out


@contextmanager
def per_graph_reference():
    """Train and infer on the per-graph reference while active."""
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            DGIPretrainer, "loss_for_batch", dgi_loss_for_batch))
        stack.enter_context(mock.patch.object(
            trainer, "finetune_loss_for_batch", finetune_loss_for_batch))
        stack.enter_context(mock.patch.object(
            trainer.GnnMlsModel, "batch_probabilities",
            batch_probabilities))
        yield
