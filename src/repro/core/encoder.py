"""The Graph Transformer encoder (Section III-C).

Three encoder layers with three-head self-attention over one timing
path's node sequence — "the proposed Transformer architecture has
three layers; each layer consists of a three-head self-attention
mechanism" — with sinusoidal positional encodings preserving the
path's signal-flow order.  Paths arrive as zero-padded (B, L, in_dim)
batches and every forward runs through the fused kernel
(:mod:`repro.nn.fused`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn import fused
from repro.nn.layers import (Linear, Module, TransformerEncoder,
                             positional_encoding)
from repro.nn.tensor import Tensor


@dataclass(frozen=True)
class EncoderConfig:
    """Model hyper-parameters (paper defaults)."""

    in_dim: int = 9
    d_model: int = 48
    heads: int = 3
    layers: int = 3
    ff_mult: int = 2
    max_len: int = 512

    def __post_init__(self) -> None:
        if self.d_model % self.heads:
            raise ValueError("d_model must be divisible by heads")


class GraphTransformer(Module):
    """Input projection + positional encoding + Transformer stack."""

    def __init__(self, config: EncoderConfig, rng: np.random.Generator):
        self.config = config
        self.proj = Linear(config.in_dim, config.d_model, rng, name="proj")
        self.encoder = TransformerEncoder(config.d_model, config.heads,
                                          config.layers, rng,
                                          ff_mult=config.ff_mult)
        self._posenc = positional_encoding(config.max_len, config.d_model)

    def __call__(self, features: Tensor,
                 key_padding_mask: np.ndarray | None = None,
                 groups: int = 1) -> Tensor:
        """Encode a zero-padded (B, L, in_dim) batch of path features
        to (B, L, d_model) node embeddings.

        The boolean (B, L) *key_padding_mask* marks real nodes.  The
        batch runs through the fused kernel
        (:func:`repro.nn.fused.encode`) as one autograd node,
        bit-identical to the op-by-op graph: the positional encoding
        broadcasts per row, and the mask keeps padded nodes out of
        every attention softmax so real rows encode exactly as they
        would alone.  *groups* > 1 treats the batch as that many
        stacked batches whose parameter gradients are reduced
        separately (DGI's clean + corrupted pass).
        """
        n = self._check_length(features.shape[-2])
        return fused.encode(self.proj, self.encoder, self._posenc[:n],
                            features, key_padding_mask, groups)

    def infer(self, features: np.ndarray,
              key_padding_mask: np.ndarray | None = None) -> np.ndarray:
        """Forward-only (B, L, d_model) embeddings of a padded batch:
        the values :meth:`__call__` returns, with no autograd node and
        no saved activations."""
        n = self._check_length(features.shape[-2])
        return fused.infer(self.proj, self.encoder, self._posenc[:n],
                           features, key_padding_mask)

    def _check_length(self, n: int) -> int:
        if n > self.config.max_len:
            raise ValueError(
                f"path length {n} exceeds max_len {self.config.max_len}")
        return n
