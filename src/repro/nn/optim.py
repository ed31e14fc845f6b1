"""The Adam optimizer both selector training stages step with.

:class:`Adam` keeps its parameters, moments and gradients in flat
float64 buffers, so one step is a handful of NumPy calls over the
whole parameter vector instead of a dozen per parameter.  Every
element goes through the per-parameter update's expressions in the
same order, so the trained bytes are those of a loop over the
parameters; that loop is the oracle in the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


#: Adam's moment decay rates and denominator guard (Kingma & Ba).
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


class Adam:
    """Adam with bias correction (Kingma & Ba) over one flat buffer.

    The constructor copies the parameters into one float64 buffer and
    rebinds each ``Tensor.data`` to its view of it, so a parameter's
    ``data`` must not be rebound while this optimizer steps it.  A
    step gathers the ``grad`` arrays into one gradient buffer and
    updates the whole buffer at once.  A parameter whose ``grad`` is
    None keeps its data and moments; the step then updates the others
    one by one.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        self.lr = lr
        bounds = np.cumsum([0] + [p.data.size for p in self.params])
        self._spans = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        size = int(bounds[-1])
        self._flat = np.empty(size)
        for p, (lo, hi) in zip(self.params, self._spans):
            view = self._flat[lo:hi].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        # The gathered gradient, later the step's denominator, and one
        # scratch array: all one step needs besides the moments.
        self._grad = np.empty(size)
        self._scratch = np.empty(size)
        self._t = 0

    def step(self) -> None:
        self._t += 1
        grads = [p.grad for p in self.params]
        if grads and all(g is not None for g in grads):
            np.concatenate(grads, axis=None, out=self._grad)
            self._update(0, len(self._flat))
            return
        for (lo, hi), grad in zip(self._spans, grads):
            if grad is not None:
                self._grad[lo:hi] = grad.reshape(-1)
                self._update(lo, hi)

    def _update(self, lo: int, hi: int) -> None:
        """Apply the update to elements ``lo:hi``, whose gradient is
        gathered: ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g``
        and ``p -= lr m_hat / (sqrt(v_hat) + eps)``."""
        b1, b2 = BETA1, BETA2
        m, v, grad = self._m[lo:hi], self._v[lo:hi], self._grad[lo:hi]
        tmp = self._scratch[lo:hi]
        m *= b1
        np.multiply(grad, 1 - b1, out=tmp)
        m += tmp
        v *= b2
        np.multiply(grad, 1 - b2, out=tmp)
        tmp *= grad
        v += tmp
        np.divide(m, 1 - b1 ** self._t, out=tmp)         # m_hat
        tmp *= self.lr
        np.divide(v, 1 - b2 ** self._t, out=grad)        # v_hat
        np.sqrt(grad, out=grad)
        grad += EPS
        tmp /= grad
        self._flat[lo:hi] -= tmp

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
