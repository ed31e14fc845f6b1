"""Padded-batch assembly for the selector leg.

DGI pretraining, fine-tuning and inference process path graphs only
as zero-padded (B, L, D) batches with boolean (B, L) key-padding
masks, for every batch size (a batch of one included).  Everything
here is deterministic plain NumPy: bucketing depends only on the
lengths and the visit order the caller drew from its
:class:`~repro.rng.SeedBundle` stream, so two runs with the same seeds
build identical batches.
"""

from __future__ import annotations

import numpy as np


def pad_batch(mats: list[np.ndarray]
              ) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length (N_i, D) matrices into a zero-padded
    (B, L, D) batch plus its boolean (B, L) node mask (True = real).

    Padding rows are exactly zero; combined with the mask-aware
    softmax/reductions downstream they contribute exact zeros to every
    cross-row sum, which is what keeps each real row's math equal to
    that graph's alone.
    """
    if not mats:
        raise ValueError("cannot pad an empty batch")
    length = max(m.shape[0] for m in mats)
    dim = mats[0].shape[1]
    batch = np.zeros((len(mats), length, dim), dtype=np.float64)
    mask = np.zeros((len(mats), length), dtype=bool)
    for i, m in enumerate(mats):
        batch[i, : m.shape[0]] = m
        mask[i, : m.shape[0]] = True
    return batch, mask


def pad_rows(rows: list[np.ndarray], length: int,
             dtype=np.float64) -> np.ndarray:
    """Pad 1-D per-node arrays (labels, decidable flags) to (B, L)."""
    out = np.zeros((len(rows), length), dtype=dtype)
    for i, row in enumerate(rows):
        out[i, : row.shape[0]] = row
    return out


def length_bucketed_batches(lengths: np.ndarray, order: np.ndarray,
                            batch_size: int,
                            rng: np.random.Generator | None = None
                            ) -> list[np.ndarray]:
    """Partition a visit *order* into length-homogeneous minibatches.

    The shuffled *order* is stably sorted by graph length — so each
    epoch's bucket composition still varies with the shuffle — then
    chunked into consecutive groups of *batch_size*, which bounds the
    padding waste to the within-bucket length spread.  With *rng* the
    bucket visit order is reshuffled (one extra deterministic draw);
    with ``batch_size == 1`` the order is returned as singleton
    batches untouched.
    """
    order = np.asarray(order, dtype=np.int64)
    if batch_size <= 1:
        return [order[i : i + 1] for i in range(len(order))]
    ranked = order[np.argsort(lengths[order], kind="stable")]
    batches = [ranked[i : i + batch_size]
               for i in range(0, len(ranked), batch_size)]
    if rng is not None and len(batches) > 1:
        batches = [batches[int(i)]
                   for i in rng.permutation(len(batches))]
    return batches
