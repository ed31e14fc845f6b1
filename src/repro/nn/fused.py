"""Fused kernels for the selector's training step.

The selector's encoder — input projection, sinusoidal positional
encoding, pre-LN Transformer layers and a final LayerNorm — runs on
tiny zero-padded (B, L, D) batches, where the op-by-op autograd engine
spends more time building ~170 graph nodes per forward than doing the
arithmetic.  :func:`encode` runs the whole encoder as plain NumPy and
records **one** autograd node whose hand-written backward repeats the
engine's gradient arithmetic bit for bit:

* every expression is the one the op-by-op graph of the same layers
  evaluates, on the same shapes and memory layouts — batched
  (B, L, D) @ (D, D') matmuls stay 3-D, because folding them into one
  2-D matmul changes the rounding;
* every broadcast reduction is the engine's ``_unbroadcast``: bias and
  LayerNorm-affine gradients are ``.sum(0).sum(0)``, weight gradients
  ``.sum(0)`` of the batched product, LayerNorm's (B, L, 1) terms
  ``sum(axis=2, keepdims=True)``;
* the engine copies every gradient it stores, so a gradient reaches
  the next matmul or reduction C-contiguous; head-split gradients are
  copied here for the same reason;
* a tensor's gradient contributions are added in the order the
  engine's topological sort visits its consumers: a layer input gets
  its residual term, then LayerNorm's centered term, then its mean
  term; a LayerNorm output feeding attention gets (q + k) + v.

``groups`` splits the batch into equal row blocks whose parameter
gradients are reduced and accumulated separately, so one stacked
forward of two batches is exactly two forwards (DGI runs its clean
and corrupted views this way; :func:`split_rows` hands the blocks
back to an op-by-op graph).  The backward frees each layer's cached
activations once it has used them, so a node backpropagates once; a
second backward raises.  :func:`infer` is the forward alone, keeping
no caches.

The two training objectives sit on top of that node as one more node
each, under the same rules: :func:`dgi_loss` (masked-mean readout,
tanh summary, bilinear discriminator and the masked DGI loss of
Eq. 3) and :func:`head_bce_loss` (the MLP decision head and the
masked, positively weighted BCE).  Their backward passes hand the
encoder node the gradient the op-by-op graph would, and write the
discriminator's or the head's parameter gradients.
:func:`head_probabilities` is the head's forward alone, for
inference.  These kernels are the only forwards of the encoder, the
head and both losses; the op-by-op graphs they reproduce are oracles
in the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import (MLP, LayerNorm, Linear,
                             MultiHeadSelfAttention, TransformerEncoder)
from repro.nn.tensor import Tensor, _unbroadcast, softmax_data

#: Both objectives squeeze each sigmoid into [EPS, 1 - EPS] before
#: its log: ``p * (1 - 2 EPS) + EPS``.
EPS = 1e-7


def _group_sums(arr: np.ndarray, groups: int) -> list[np.ndarray]:
    """``.sum(0)`` of each row block — the engine's batch-axis
    ``_unbroadcast``, once per stacked forward."""
    if groups == 1:
        return [arr.sum(0)]
    rows = arr.shape[0] // groups
    return [arr[j * rows:(j + 1) * rows].sum(0) for j in range(groups)]


def _vector_sums(arr: np.ndarray, groups: int) -> list[np.ndarray]:
    """``.sum(0).sum(0)`` of each row block: a (D,) bias or LayerNorm
    parameter's share of a (B, L, D) gradient."""
    return [part.sum(0) for part in _group_sums(arr, groups)]


def _accumulate(param: Tensor, parts: list[np.ndarray]) -> None:
    """Add fresh per-group gradient arrays into *param*, as the
    engine's ``_accumulate`` would (first store, then ``+=``)."""
    for part in parts:
        if param.grad is None:
            param.grad = part
        else:
            param.grad += part


def _linear_backward(linear: Linear, x: np.ndarray, grad: np.ndarray,
                     groups: int, input_grad: bool = True
                     ) -> np.ndarray | None:
    """Accumulate ``x @ W + b``'s parameter gradients; return dx."""
    _accumulate(linear.weight, _group_sums(x.swapaxes(-1, -2) @ grad,
                                           groups))
    _accumulate(linear.bias, _vector_sums(grad, groups))
    if not input_grad:
        return None
    return grad @ linear.weight.data.T


def _heads_to_rows(grad: np.ndarray) -> np.ndarray:
    """A (B, H, L, hd) head-split gradient as C-ordered (B, L, D)."""
    b, heads, length, head_dim = grad.shape
    return grad.transpose(0, 2, 1, 3).copy().reshape(
        b, length, heads * head_dim)


def _layernorm(x: np.ndarray, ln: LayerNorm) -> tuple[np.ndarray, tuple]:
    scale = 1.0 / x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) * scale
    shifted = (centered * centered).sum(axis=-1, keepdims=True) * scale \
        + ln.eps
    inv = shifted ** -0.5
    normed = centered * inv
    out = normed * ln.gamma.data + ln.beta.data
    return out, (centered, shifted, inv, normed)


def _layernorm_backward(grad: np.ndarray, ln: LayerNorm, cache: tuple,
                        groups: int) -> tuple[np.ndarray, np.ndarray]:
    """LayerNorm's input gradient as (centered term, (B, L, 1) mean
    term); the caller adds them in the engine's order."""
    centered, shifted, inv, normed = cache
    scale = 1.0 / grad.shape[-1]
    _accumulate(ln.beta, _vector_sums(grad, groups))
    _accumulate(ln.gamma, _vector_sums(grad * normed, groups))
    d_normed = grad * ln.gamma.data
    d_centered = d_normed * inv
    d_inv = (d_normed * centered).sum(axis=2, keepdims=True)
    d_square = d_inv * -0.5 * shifted ** -1.5 * scale
    square_term = d_square * centered
    d_centered += square_term        # centered * centered: two terms
    d_centered += square_term
    d_mean = -d_centered.sum(axis=2, keepdims=True) * scale
    return d_centered, d_mean


def _attention(x: np.ndarray, attn: MultiHeadSelfAttention,
               mask: np.ndarray | None
               ) -> tuple[np.ndarray, tuple]:
    b, length, dim = x.shape
    heads, head_dim = attn.heads, attn.head_dim

    def split(linear: Linear) -> np.ndarray:
        return (x @ linear.weight.data + linear.bias.data) \
            .reshape(b, length, heads, head_dim).transpose(0, 2, 1, 3)

    q, k, v = split(attn.wq), split(attn.wk), split(attn.wv)
    k_t = k.transpose(0, 1, 3, 2)
    probs = softmax_data((q @ k_t) * (head_dim ** -0.5), -1, mask)
    merged = (probs @ v).transpose(0, 2, 1, 3).reshape(b, length, dim)
    out = merged @ attn.wo.weight.data + attn.wo.bias.data
    return out, (x, q, k_t, v, probs, merged)


def _attention_backward(grad: np.ndarray, attn: MultiHeadSelfAttention,
                        cache: tuple, groups: int) -> np.ndarray:
    x, q, k_t, v, probs, merged = cache
    d_merged = _linear_backward(attn.wo, merged, grad, groups)
    d_mixed = d_merged.reshape(v.shape[0], v.shape[2], attn.heads,
                               attn.head_dim).transpose(0, 2, 1, 3).copy()
    d_probs = d_mixed @ v.swapaxes(-1, -2)
    d_v = probs.swapaxes(-1, -2) @ d_mixed
    dot = (d_probs * probs).sum(axis=-1, keepdims=True)
    d_scores = probs * (d_probs - dot) * (attn.head_dim ** -0.5)
    d_q = d_scores @ k_t.swapaxes(-1, -2)
    d_k = (q.swapaxes(-1, -2) @ d_scores).transpose(0, 1, 3, 2)
    dx = _linear_backward(attn.wq, x, _heads_to_rows(d_q), groups)
    dx = dx + _linear_backward(attn.wk, x, _heads_to_rows(d_k), groups)
    return dx + _linear_backward(attn.wv, x, _heads_to_rows(d_v), groups)


def _forward(proj: Linear, encoder: TransformerEncoder,
             posenc: np.ndarray, features: np.ndarray,
             mask: np.ndarray | None, caches: list | None) -> np.ndarray:
    """The encoder forward; appends one cache tuple per layer (then
    the final LayerNorm's) to *caches* unless it is None."""
    if mask is not None:
        # (B, L) key mask -> broadcast over heads and query rows.
        mask = np.asarray(mask, dtype=bool)[:, None, None, :]
    x = (features @ proj.weight.data + proj.bias.data) + posenc
    for layer in encoder.layers:
        normed, ln1 = _layernorm(x, layer.ln1)
        mixed, attn = _attention(normed, layer.attn, mask)
        x = x + mixed
        normed, ln2 = _layernorm(x, layer.ln2)
        hidden = normed @ layer.ff1.weight.data + layer.ff1.bias.data
        active = hidden > 0
        hidden = hidden * active
        x = x + (hidden @ layer.ff2.weight.data + layer.ff2.bias.data)
        if caches is not None:
            caches.append((ln1, attn, ln2, normed, active, hidden))
    out, final = _layernorm(x, encoder.final_ln)
    if caches is not None:
        caches.append(final)
    return out


def infer(proj: Linear, encoder: TransformerEncoder, posenc: np.ndarray,
          features: np.ndarray, mask: np.ndarray | None = None
          ) -> np.ndarray:
    """Forward only: the (B, L, D) embeddings :func:`encode` returns,
    with no autograd node and no caches."""
    return _forward(proj, encoder, posenc, features, mask, None)


def encode(proj: Linear, encoder: TransformerEncoder, posenc: np.ndarray,
           features: Tensor, mask: np.ndarray | None = None,
           groups: int = 1) -> Tensor:
    """Encode a padded (B, L, in_dim) batch as one autograd node.

    *proj* and *encoder* hold the parameters, *posenc* is the (L, D)
    positional encoding, *mask* the boolean (B, L) key-padding mask.
    The batch's rows form *groups* equal blocks whose parameter
    gradients are reduced separately (see the module docstring).
    """
    if features.shape[0] % groups:
        raise ValueError(f"{features.shape[0]} rows do not split into "
                         f"{groups} groups")
    caches: list = []
    out = _forward(proj, encoder, posenc, features.data, mask, caches)

    def backward(grad: np.ndarray) -> None:
        # Each cache is popped as its layer's backward uses it, so the
        # activations die layer by layer and a second backward through
        # this node has nothing to read.
        if not caches:
            raise RuntimeError("the fused encoder node's backward "
                               "already ran and freed its activations")
        d_centered, d_mean = _layernorm_backward(
            grad, encoder.final_ln, caches.pop(), groups)
        dx = d_centered + d_mean
        for layer in reversed(encoder.layers):
            ln1, attn, ln2, normed, active, hidden = caches.pop()
            d_hidden = _linear_backward(layer.ff2, hidden, dx, groups)
            d_normed = _linear_backward(layer.ff1, normed,
                                        d_hidden * active, groups)
            d_centered, d_mean = _layernorm_backward(
                d_normed, layer.ln2, ln2, groups)
            dx = dx + d_centered             # residual term first
            dx += d_mean
            d_normed = _attention_backward(dx, layer.attn, attn, groups)
            d_centered, d_mean = _layernorm_backward(
                d_normed, layer.ln1, ln1, groups)
            dx = dx + d_centered
            dx += d_mean
        d_features = _linear_backward(proj, features.data, dx, groups,
                                      input_grad=features.requires_grad)
        if d_features is not None:
            features._accumulate(d_features)

    # The parameters are leaves the backward writes into directly, so
    # only the input needs a graph edge.
    node = Tensor(out, requires_grad=True)
    node._parents = (features,)
    node._backward = backward
    return node


def split_rows(stacked: Tensor, groups: int) -> list[Tensor]:
    """Split a stacked (G * B, ...) tensor into *groups* row blocks.

    Each block's backward assigns (never adds) its gradient into its
    rows of the stacked gradient, so the blocks must be the stacked
    tensor's only consumers.
    """
    rows = stacked.shape[0] // groups

    def block(lo: int, hi: int) -> Tensor:
        def backward(grad: np.ndarray) -> None:
            if stacked.grad is None:
                stacked.grad = np.zeros_like(stacked.data)
            stacked.grad[lo:hi] = grad
        return stacked._make(stacked.data[lo:hi], (stacked,), backward)

    return [block(j * rows, (j + 1) * rows) for j in range(groups)]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The engine's ``Tensor.sigmoid`` forward."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))


def _head_forward(head: MLP, x: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``fc2(relu(fc1(x)))`` of a (B, L, D) batch: (B, L, 1) logits,
    the rectified hidden layer and its active mask."""
    hidden = x @ head.fc1.weight.data + head.fc1.bias.data
    active = hidden > 0
    hidden = hidden * active
    logits = hidden @ head.fc2.weight.data + head.fc2.bias.data
    return logits, hidden, active


def head_probabilities(head: MLP, embeddings: np.ndarray) -> np.ndarray:
    """(B, L) sigmoid of the head's logits over (B, L, D) embeddings,
    with no autograd node."""
    return _sigmoid(_head_forward(head, embeddings)[0])[:, :, 0]


def _loss_node(value: np.ndarray, parent: Tensor, backward) -> Tensor:
    """A scalar loss node whose only graph edge is *parent*; the
    parameters are leaves its *backward* writes into directly."""
    node = Tensor(value, requires_grad=True)
    node._parents = (parent,)
    node._backward = backward
    return node


def head_bce_loss(embeddings: Tensor, head: MLP, targets: np.ndarray,
                  mask: np.ndarray, pos_weight: float) -> Tensor:
    """Masked BCE of the head's logits over (B, L, D) *embeddings*, as
    one autograd node.

    Per row the loss is the mean over that row's *mask* (decidable,
    non-padding) entries of ``-(t * log p * pos_weight + (1 - t) *
    log(1 - p))``, with ``p`` the squeezed sigmoid of the logit; the
    batch loss is the mean over rows with at least one masked-in
    entry.  Rows with none (all padding, or no decidable node)
    contribute exact zeros and are not counted.
    """
    x = embeddings.data
    rows, length = x.shape[0], x.shape[1]
    logits, hidden, active = _head_forward(head, x)
    sig = _sigmoid(logits.reshape(rows, length))
    squeeze = 1.0 - 2 * EPS
    p = sig * squeeze + EPS
    t = np.asarray(targets, dtype=np.float64)
    pos_t = t * pos_weight
    neg_t = 1.0 - t
    rest = 1.0 - p
    elementwise = -(pos_t * np.log(p) + neg_t * np.log(rest))
    weights = np.asarray(mask, dtype=np.float64)
    counts = weights.sum(axis=-1)
    valid = counts > 0.0
    row_scale = np.where(valid, 1.0 / np.maximum(counts, 1.0), 0.0)
    per_row = (elementwise * weights).sum(axis=-1) * row_scale
    batch_scale = 1.0 / max(int(valid.sum()), 1)

    def backward(grad: np.ndarray) -> None:
        d_rows = np.broadcast_to(grad * batch_scale, (rows,)) * row_scale
        d_sum = -(d_rows[:, None] * weights)
        # p feeds log(p) and 1 - p: two terms, so their order is moot.
        d_p = d_sum * pos_t / p - d_sum * neg_t / rest
        d_logits = d_p * squeeze * sig * (1.0 - sig)
        d_hidden = _linear_backward(head.fc2, hidden,
                                    d_logits.reshape(rows, length, 1), 1)
        d_x = _linear_backward(head.fc1, x, d_hidden * active, 1)
        _accumulate(embeddings, [d_x])

    return _loss_node(per_row.sum() * batch_scale, embeddings, backward)


def dgi_loss(stacked: Tensor, discriminator: Tensor,
             mask: np.ndarray) -> Tensor:
    """Deep Graph Infomax loss (paper Eq. 3, BCE form) of a stacked
    clean + corrupted (2B, L, D) encoding, as one autograd node.

    The summary of each clean row is the tanh of its masked-mean
    readout; the bilinear discriminator scores every node against its
    row's summary, ``<v, W g>``.  Per row, the squeezed sigmoids of
    the clean scores are pushed toward 1 and the corrupted ones toward
    0, each term a masked mean over the row's real nodes, and the
    batch loss is the mean of the per-row losses.
    """
    rows, dim = stacked.shape[0] // 2, stacked.shape[2]
    pos, neg = stacked.data[:rows], stacked.data[rows:]
    weights = np.asarray(mask, dtype=np.float64)
    node_weights = weights[..., None]
    counts = node_weights.sum(axis=1)
    inv_counts = 1.0 / np.where(counts == 0.0, 1.0, counts)
    summary = np.tanh((pos * node_weights).sum(axis=1) * inv_counts)
    summary_rows = summary.reshape(rows, 1, dim)
    pos_proj = pos @ discriminator.data
    neg_proj = neg @ discriminator.data
    pos_sig = _sigmoid((pos_proj * summary_rows).sum(axis=-1))
    neg_sig = _sigmoid((neg_proj * summary_rows).sum(axis=-1))
    squeeze = 1.0 - 2 * EPS
    pos_p = pos_sig * squeeze + EPS
    neg_rest = 1.0 - (neg_sig * squeeze + EPS)
    row_counts = weights.sum(axis=-1)
    row_scale = 1.0 / np.where(row_counts == 0.0, 1.0, row_counts)
    pos_term = (np.log(pos_p) * weights).sum(axis=-1) * row_scale
    neg_term = (np.log(neg_rest) * weights).sum(axis=-1) * row_scale
    batch_scale = 1.0 / max(rows, 1)

    def backward(grad: np.ndarray) -> None:
        d_rows = -np.broadcast_to(grad * batch_scale, (rows,)) * row_scale
        d_nodes = d_rows[:, None] * weights
        d_pos_scores = (d_nodes / pos_p * squeeze * pos_sig
                        * (1.0 - pos_sig))[..., None]
        d_neg_scores = (-(d_nodes / neg_rest) * squeeze * neg_sig
                        * (1.0 - neg_sig))[..., None]
        # The engine reaches the clean scores first: the summary and
        # the discriminator take their clean term, then the corrupted.
        d_summary = _unbroadcast(d_pos_scores * pos_proj,
                                 summary_rows.shape) \
            + _unbroadcast(d_neg_scores * neg_proj, summary_rows.shape)
        d_pos_proj = d_pos_scores * summary_rows
        d_neg_proj = d_neg_scores * summary_rows
        _accumulate(discriminator, _group_sums(
            pos.swapaxes(-1, -2) @ d_pos_proj, 1)
            + _group_sums(neg.swapaxes(-1, -2) @ d_neg_proj, 1))
        d_stacked = np.empty_like(stacked.data)
        d_stacked[rows:] = d_neg_proj @ discriminator.data.T
        # A clean row's gradient: its discriminator term, then its
        # readout term.
        d_total = d_summary.reshape(rows, dim) * (1.0 - summary ** 2) \
            * inv_counts
        d_stacked[:rows] = d_pos_proj @ discriminator.data.T \
            + d_total[:, None, :] * node_weights
        _accumulate(stacked, [d_stacked])

    return _loss_node((-(pos_term + neg_term)).sum() * batch_scale,
                      stacked, backward)
