"""The 2-layer MLP decision head (Algorithm 1, fine-tuning stage).

Maps each DGI-pretrained node embedding to the binary MLS decision
delta(n_i).  Training and inference run the head inside the fused
kernels of :mod:`repro.nn.fused`, which read ``mlp``'s parameters;
the op-by-op ``__call__`` is what the test suite's oracles build on.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import MLP, Module
from repro.nn.tensor import Tensor


class DecisionHead(Module):
    """MLP: d_model -> hidden -> 1 logit per node."""

    def __init__(self, d_model: int, hidden: int,
                 rng: np.random.Generator):
        self.mlp = MLP(d_model, hidden, 1, rng, name="head")

    def __call__(self, embeddings: Tensor) -> Tensor:
        return self.mlp(embeddings)
