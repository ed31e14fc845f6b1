"""Reverse-mode autograd tensor.

A deliberately small engine: float64 NumPy arrays, dynamic graph,
broadcasting-aware gradients.  Every op records a backward closure;
:meth:`Tensor.backward` topologically sorts the graph and accumulates.
The op set is exactly what the GNN-MLS model needs — add/mul/matmul,
elementwise nonlinearities, reductions, softmax, slicing, concat.

The selector's training step records two nodes on this engine, not
hundreds: :mod:`repro.nn.fused` computes the padded (B, L, D) encoder
and the objective on top of it (DGI readout, discriminator and loss;
decision head and masked BCE) as plain NumPy, and their hand-written
backward passes reproduce this engine's arithmetic — ``_unbroadcast``
reductions, C-ordered stored gradients, contribution order — bit for
bit.  The op-by-op graphs they are checked against live in the test
suite as oracles and build on this op set.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce *grad* back to *shape* after NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum along broadcast (size-1) axes.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def softmax_data(data: np.ndarray, axis: int = -1,
                 mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Softmax of a plain array along *axis*; optional boolean *mask*
    (True = keep).

    Masked-out entries get an exactly-zero probability, and the
    max/exp/sum over the kept entries is the same arithmetic an
    unmasked softmax over just those entries would do — which is what
    lets padded (B, L, D) batches reproduce the per-graph path.
    Slices with every entry masked come out all-zero (a padding row
    attends to nothing).
    """
    if mask is None:
        shifted = data - data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=axis, keepdims=True)
    keep = np.broadcast_to(np.asarray(mask, dtype=bool), data.shape)
    neg = np.where(keep, data, -np.inf)
    peak = neg.max(axis=axis, keepdims=True)
    # All-masked slices have peak -inf; any finite stand-in works
    # because their exp terms are forced to zero below.
    peak = np.where(np.isfinite(peak), peak, 0.0)
    exp = np.where(keep, np.exp(data - peak), 0.0)
    denom = exp.sum(axis=axis, keepdims=True)
    return exp / np.where(denom == 0.0, 1.0, denom)


class Tensor:
    """An autograd node wrapping a float64 ndarray."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "name", "__weakref__")

    def __init__(self, data, requires_grad: bool = False,
                 name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple["Tensor", ...] = ()
        self.name = name

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def param(data, name: str = "") -> "Tensor":
        """A trainable parameter."""
        return Tensor(data, requires_grad=True, name=name)

    # -- plumbing ----------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def _make(self, data: np.ndarray, parents: Iterable["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        parents = tuple(parents)
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64),
                            self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor (default seed: ones)."""
        if grad is None:
            grad = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)
        return self._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad)
        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other) -> "Tensor":
        return (-self) + other

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)
        return self._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data ** 2))
        return self._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def backward(grad):
            if self.requires_grad:
                self._accumulate(
                    grad * exponent * self.data ** (exponent - 1))
        return self._make(self.data ** exponent, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                other._accumulate(np.swapaxes(self.data, -1, -2) @ grad)
        return self._make(self.data @ other.data, (self, other), backward)

    # -- elementwise -------------------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data)
        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / self.data)
        return self._make(np.log(self.data), (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2))
        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60)))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))
        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)
        return self._make(self.data * mask, (self,), backward)

    # -- reductions / shaping --------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))
        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None \
            else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(self.data.shape))
        return self._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes = axes or tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(axes)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))
        return self._make(self.data.transpose(axes), (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        def backward(grad):
            if self.requires_grad:
                g = np.zeros_like(self.data)
                np.add.at(g, key, grad)
                self._accumulate(g)
        return self._make(self.data[key], (self,), backward)

    def softmax(self, axis: int = -1,
                mask: Optional[np.ndarray] = None) -> "Tensor":
        """Softmax along *axis*; optional boolean *mask* (True = keep).

        The forward is :func:`softmax_data`; masked-out entries get an
        exactly-zero gradient as well.
        """
        out_data = softmax_data(self.data, axis, mask)

        def backward(grad):
            if not self.requires_grad:
                return
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            self._accumulate(out_data * (grad - dot))
        return self._make(out_data, (self,), backward)

    @staticmethod
    def concat(tensors: list["Tensor"], axis: int = 0) -> "Tensor":
        datas = [t.data for t in tensors]
        out_data = np.concatenate(datas, axis=axis)
        sizes = [d.shape[axis] for d in datas]
        offsets = np.cumsum([0] + sizes)

        def backward(grad):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    index = [slice(None)] * grad.ndim
                    index[axis] = slice(lo, hi)
                    t._accumulate(grad[tuple(index)])
        dummy = Tensor(out_data)
        if any(t.requires_grad for t in tensors):
            dummy.requires_grad = True
            dummy._parents = tuple(tensors)
            dummy._backward = backward
        return dummy

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = "*" if self.requires_grad else ""
        return f"Tensor{flag}(shape={self.data.shape})"
