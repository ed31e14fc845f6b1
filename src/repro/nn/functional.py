"""Masked reductions and losses over padded batches.

Each takes the batch's boolean mask, so padding rows contribute exact
zeros and every real row's term is the one its graph alone would give.
"""

from __future__ import annotations

import numpy as np

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
    ``[1e-7, 1 - 1e-7]``; ``pos_weight`` scales the positive-class
    term for the imbalanced MLS labels.  The batch loss is the mean
    over rows that have at least one masked-in entry.  Rows with none
    (all-padding, or no decidable nodes) contribute exact zeros and
    are excluded from the row count.
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
    over padded (B, L) score matrices.

    Positive node/summary scores are pushed toward 1 and corrupted-node
    scores toward 0, both through the sigmoid the paper adopts "to map
    inner product to probability and aid training stability".  Each
    row's positive/negative terms are masked means over its real
    nodes, and the batch loss is the mean of the per-row losses.
    """
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
