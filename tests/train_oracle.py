"""Op-by-op training objectives and the per-parameter Adam: the oracle
of the fused objective kernels and the flat Adam.

The masked reductions and losses here are the autograd graphs
:func:`repro.nn.fused.dgi_loss`, :func:`repro.nn.fused.head_bce_loss`
and :func:`repro.nn.fused.head_probabilities` fuse, with the same
signatures, so a test can swap them in and demand bit-identical
losses, gradients and trained parameters.  :class:`Adam` is the
per-parameter loop :class:`repro.nn.optim.Adam` flattens.
"""

from __future__ import annotations

import numpy as np

from repro.nn.fused import split_rows
from repro.nn.layers import MLP
from repro.nn.optim import BETA1, BETA2, EPS
from repro.nn.tensor import Tensor


def masked_mean(x: Tensor, mask: np.ndarray, axis: int = 1) -> Tensor:
    """Mean of *x* over *axis* counting only entries where *mask*.

    *mask* is a boolean (or 0/1) array broadcastable to ``x`` once a
    trailing feature axis is appended — the (B, L) key-padding mask of
    a padded (B, L, D) batch.  Masked entries contribute an exact zero
    (``garbage * 0.0 == 0.0``), so per-row results match the
    unpadded per-graph reduction; all-masked rows come out zero.
    """
    weights = np.asarray(mask, dtype=np.float64)
    if weights.ndim == x.ndim - 1:
        weights = weights[..., None]
    counts = weights.sum(axis=axis)
    counts = np.where(counts == 0.0, 1.0, counts)
    return (x * Tensor(weights)).sum(axis=axis) * Tensor(1.0 / counts)


def masked_bce_with_logits(logits: Tensor, targets: np.ndarray,
                           mask: np.ndarray,
                           pos_weight: float = 1.0) -> Tensor:
    """Batched BCE over a padded (B, L) logit matrix with per-row masks.

    Per row the loss is the mean over that row's *mask* (decidable,
    non-padding) entries of ``-(t * log p * pos_weight + (1 - t) *
    log(1 - p))``, with ``p`` the sigmoid squeezed into
    ``[1e-7, 1 - 1e-7]``.  The batch loss is the mean over rows that
    have at least one masked-in entry.  Rows with none (all-padding,
    or no decidable nodes) contribute exact zeros and are excluded
    from the row count.
    """
    weights = np.asarray(mask, dtype=np.float64)
    probs = logits.sigmoid()
    eps = 1e-7
    p = probs * (1.0 - 2 * eps) + eps
    t = np.asarray(targets, dtype=np.float64)
    elementwise = -(Tensor(t * pos_weight) * p.log()
                    + Tensor(1.0 - t) * (1.0 - p).log())
    counts = weights.sum(axis=-1)
    valid = counts > 0.0
    row_scale = np.where(valid, 1.0 / np.maximum(counts, 1.0), 0.0)
    per_row = (elementwise * Tensor(weights)).sum(axis=-1) \
        * Tensor(row_scale)
    n_valid = max(int(valid.sum()), 1)
    return per_row.sum() * (1.0 / n_valid)


def masked_dgi_loss(pos_scores: Tensor, neg_scores: Tensor,
                    mask: np.ndarray) -> Tensor:
    """Batched Deep Graph Infomax objective (paper Eq. 3, BCE form)
    over padded (B, L) score matrices: each row's positive/negative
    terms are masked means over its real nodes, and the batch loss is
    the mean of the per-row losses."""
    weights = np.asarray(mask, dtype=np.float64)
    eps = 1e-7
    pos = pos_scores.sigmoid() * (1.0 - 2 * eps) + eps
    neg = neg_scores.sigmoid() * (1.0 - 2 * eps) + eps
    counts = weights.sum(axis=-1)
    row_scale = 1.0 / np.where(counts == 0.0, 1.0, counts)
    pos_term = (pos.log() * Tensor(weights)).sum(axis=-1) \
        * Tensor(row_scale)
    neg_term = ((1.0 - neg).log() * Tensor(weights)).sum(axis=-1) \
        * Tensor(row_scale)
    per_row = -(pos_term + neg_term)
    return per_row.sum() * (1.0 / max(pos_scores.shape[0], 1))


def dgi_loss(stacked: Tensor, discriminator: Tensor,
             mask: np.ndarray) -> Tensor:
    """The op-by-op graph :func:`repro.nn.fused.dgi_loss` fuses:
    split the stacked encoding, read out, score, mask."""
    pos, neg = split_rows(stacked, 2)
    rows, dim = pos.shape[0], pos.shape[2]
    summary = masked_mean(pos, mask, axis=1).tanh()      # (B, D)
    summary = summary.reshape(rows, 1, dim)
    pos_scores = ((pos @ discriminator) * summary).sum(axis=-1)
    neg_scores = ((neg @ discriminator) * summary).sum(axis=-1)
    return masked_dgi_loss(pos_scores, neg_scores, mask)


def head_bce_loss(embeddings: Tensor, head: MLP, targets: np.ndarray,
                  mask: np.ndarray, pos_weight: float) -> Tensor:
    """The op-by-op graph :func:`repro.nn.fused.head_bce_loss` fuses."""
    rows, length = embeddings.shape[0], embeddings.shape[1]
    logits = head(embeddings).reshape(rows, length)
    return masked_bce_with_logits(logits, targets, mask,
                                  pos_weight=pos_weight)


def head_probabilities(head, embeddings: np.ndarray) -> np.ndarray:
    """Per-node MLS probabilities of the head's op-by-op forward over
    (..., D) embeddings (a ``DecisionHead`` or its ``MLP``)."""
    return head(Tensor(embeddings)).sigmoid().data[..., 0]


class Adam:
    """Adam with bias correction, one parameter at a time."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        self.lr = lr
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = BETA1, BETA2
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * grad * grad
            m_hat = m / (1 - b1 ** self._t)
            v_hat = v / (1 - b2 ** self._t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
