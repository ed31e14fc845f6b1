"""Op-by-op batched Graph Transformer: the fused kernel's oracle.

This is the padded (B, L, D) encoder built from autograd primitives —
the batched multi-head attention the layers used to carry, composed
with the model's own Linear/LayerNorm modules.  It has the same
signatures as :func:`repro.nn.fused.encode` and
:func:`repro.nn.fused.infer`, so a test can swap it in for the kernel
and demand bit-identical outputs, gradients and trained parameters.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import (Linear, MultiHeadSelfAttention,
                             TransformerEncoder, TransformerEncoderLayer)
from repro.nn.tensor import Tensor


def batched_attention(attn: MultiHeadSelfAttention, x: Tensor,
                      key_padding_mask: np.ndarray | None) -> Tensor:
    """Masked multi-head self-attention over a (B, L, D) batch."""
    b, length = x.shape[0], x.shape[1]
    q = attn.wq(x).reshape(b, length, attn.heads, attn.head_dim) \
        .transpose(0, 2, 1, 3)
    k = attn.wk(x).reshape(b, length, attn.heads, attn.head_dim) \
        .transpose(0, 2, 1, 3)
    v = attn.wv(x).reshape(b, length, attn.heads, attn.head_dim) \
        .transpose(0, 2, 1, 3)
    scores = (q @ k.transpose(0, 1, 3, 2)) * (attn.head_dim ** -0.5)
    mask = None
    if key_padding_mask is not None:
        # (B, L) key mask -> broadcast over heads and query rows.
        mask = np.asarray(key_padding_mask, dtype=bool)[:, None, None, :]
    attn_w = scores.softmax(axis=-1, mask=mask)
    mixed = attn_w @ v                    # (B, H, L, hd)
    merged = mixed.transpose(0, 2, 1, 3).reshape(b, length, attn.dim)
    return attn.wo(merged)


def batched_layer(layer: TransformerEncoderLayer, x: Tensor,
                  key_padding_mask: np.ndarray | None) -> Tensor:
    x = x + batched_attention(layer.attn, layer.ln1(x), key_padding_mask)
    return x + layer.ff2(layer.ff1(layer.ln2(x)).relu())


def encode(proj: Linear, encoder: TransformerEncoder, posenc: np.ndarray,
           features: Tensor, mask: np.ndarray | None = None,
           groups: int = 1) -> Tensor:
    """The op-by-op graph :func:`repro.nn.fused.encode` fuses; *groups*
    row blocks run as separate forwards, concatenated."""
    if groups == 1:
        blocks = [(features, mask)]
    else:
        rows = features.shape[0] // groups
        spans = [slice(j * rows, (j + 1) * rows) for j in range(groups)]
        blocks = [(features[span], None if mask is None else mask[span])
                  for span in spans]
    outs = []
    for part, part_mask in blocks:
        x = proj(part) + Tensor(posenc)
        for layer in encoder.layers:
            x = batched_layer(layer, x, part_mask)
        outs.append(encoder.final_ln(x))
    return outs[0] if groups == 1 else Tensor.concat(outs, axis=0)


def infer(proj: Linear, encoder: TransformerEncoder, posenc: np.ndarray,
          features: np.ndarray, mask: np.ndarray | None = None
          ) -> np.ndarray:
    return encode(proj, encoder, posenc, Tensor(features), mask).data
