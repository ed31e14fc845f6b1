"""Neural-network layers on the autograd tensor.

Everything the GNN-MLS encoder needs: Linear, LayerNorm, a two-layer
MLP head, multi-head self-attention and pre-LN Transformer encoder
layers, plus sinusoidal positional encodings (Section III-C preserves
path order through positional encodings).

Linear, LayerNorm and MLP run op by op on the autograd engine.  The
attention and encoder layers only hold parameters: the encoder's
forward is the fused kernel in :mod:`repro.nn.fused`, which reads
them.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import xavier_uniform
from repro.nn.tensor import Tensor


class Module:
    """Minimal parameter-container base class."""

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def named_parameters(self) -> dict[str, Tensor]:
        """Stable name -> parameter mapping for serialization."""
        out: dict[str, Tensor] = {}
        for i, p in enumerate(self.parameters()):
            key = p.name or f"param_{i}"
            if key in out:
                key = f"{key}_{i}"
            out[key] = p
        return out


class Linear(Module):
    """y = x W + b."""

    def __init__(self, in_dim: int, out_dim: int,
                 rng: np.random.Generator, name: str = "linear"):
        self.weight = Tensor.param(xavier_uniform(rng, in_dim, out_dim),
                                   name=f"{name}.weight")
        self.bias = Tensor.param(np.zeros(out_dim), name=f"{name}.bias")

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


class LayerNorm(Module):
    """Per-feature normalization over the last axis.

    Reductions never cross the sequence or batch axes, so padded
    (B, L, D) batches need no mask here: every real row normalizes
    exactly as it would in a per-graph (N, D) forward, and padding
    rows stay isolated.
    """

    def __init__(self, dim: int, name: str = "ln", eps: float = 1e-5):
        self.gamma = Tensor.param(np.ones(dim), name=f"{name}.gamma")
        self.beta = Tensor.param(np.zeros(dim), name=f"{name}.beta")
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        inv = (var + self.eps) ** -0.5
        return centered * inv * self.gamma + self.beta


class MLP(Module):
    """Two-layer perceptron with ReLU — the paper's fine-tuning head."""

    def __init__(self, in_dim: int, hidden: int, out_dim: int,
                 rng: np.random.Generator, name: str = "mlp"):
        self.fc1 = Linear(in_dim, hidden, rng, name=f"{name}.fc1")
        self.fc2 = Linear(hidden, out_dim, rng, name=f"{name}.fc2")

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).relu())


class MultiHeadSelfAttention(Module):
    """Parameters of scaled dot-product self-attention with *heads*
    heads; :mod:`repro.nn.fused` computes the forward."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator,
                 name: str = "mha"):
        if dim % heads:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.wq = Linear(dim, dim, rng, name=f"{name}.wq")
        self.wk = Linear(dim, dim, rng, name=f"{name}.wk")
        self.wv = Linear(dim, dim, rng, name=f"{name}.wv")
        self.wo = Linear(dim, dim, rng, name=f"{name}.wo")


class TransformerEncoderLayer(Module):
    """Pre-LN encoder layer: x + MHA(LN(x)); x + FFN(LN(x))."""

    def __init__(self, dim: int, heads: int, ff_mult: int,
                 rng: np.random.Generator, name: str = "enc"):
        self.ln1 = LayerNorm(dim, name=f"{name}.ln1")
        self.attn = MultiHeadSelfAttention(dim, heads, rng,
                                           name=f"{name}.attn")
        self.ln2 = LayerNorm(dim, name=f"{name}.ln2")
        self.ff1 = Linear(dim, dim * ff_mult, rng, name=f"{name}.ff1")
        self.ff2 = Linear(dim * ff_mult, dim, rng, name=f"{name}.ff2")


class TransformerEncoder(Module):
    """Stack of encoder layers with a final LayerNorm."""

    def __init__(self, dim: int, heads: int, layers: int,
                 rng: np.random.Generator, ff_mult: int = 2,
                 name: str = "encoder"):
        self.layers = [TransformerEncoderLayer(dim, heads, ff_mult, rng,
                                               name=f"{name}.l{i}")
                       for i in range(layers)]
        self.final_ln = LayerNorm(dim, name=f"{name}.final_ln")


def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Sinusoidal position encodings, shape (length, dim)."""
    positions = np.arange(length)[:, None]
    div = np.exp(np.arange(0, dim, 2) * (-np.log(10000.0) / dim))
    enc = np.zeros((length, dim))
    enc[:, 0::2] = np.sin(positions * div)
    enc[:, 1::2] = np.cos(positions * div[: dim // 2])
    return enc
