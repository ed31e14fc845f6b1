"""A small reverse-mode autograd framework on NumPy.

Replaces PyTorch/PyG for this reproduction (no network access, no GPU
needed at our scale).  Provides the pieces GNN-MLS requires: a
:class:`~repro.nn.tensor.Tensor` with broadcasting-aware backprop,
Linear/LayerNorm/MLP layers, attention and Transformer layers that
hold parameters, the fused kernels of one selector training step
(:mod:`repro.nn.fused`: the padded-batch encoder, the DGI and
fine-tune objectives and the head's inference forward, each
bit-identical to the op-by-op graph), a flat-buffer Adam, and
deterministic parameter (de)serialization.  The model is tiny (3
layers x 3 heads on <=64-dim embeddings), so NumPy trains it in
seconds, bit-reproducibly.
"""

from repro.nn.tensor import Tensor
from repro.nn.layers import (
    Module,
    Linear,
    LayerNorm,
    MLP,
    MultiHeadSelfAttention,
    TransformerEncoderLayer,
    TransformerEncoder,
    positional_encoding,
)
from repro.nn.optim import Adam
from repro.nn.init import xavier_uniform
from repro.nn.serialize import save_params, load_params

__all__ = [
    "Tensor",
    "Module",
    "Linear",
    "LayerNorm",
    "MLP",
    "MultiHeadSelfAttention",
    "TransformerEncoderLayer",
    "TransformerEncoder",
    "positional_encoding",
    "Adam",
    "xavier_uniform",
    "save_params",
    "load_params",
]
