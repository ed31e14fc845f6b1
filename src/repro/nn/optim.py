"""The Adam optimizer both selector training stages step with."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


#: Adam's moment decay rates and denominator guard (Kingma & Ba).
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


class Adam:
    """Adam with bias correction (Kingma & Ba)."""

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
