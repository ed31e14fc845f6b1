"""Autograd and layer tests, including numerical gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import (Adam, LayerNorm, Linear, MLP, Module,
                      MultiHeadSelfAttention, Tensor, TransformerEncoder,
                      load_params, positional_encoding, save_params)

from tests import select_oracle as reference


def numerical_grad(fn, arr, eps=1e-6):
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        plus = arr.copy(); plus[idx] += eps
        minus = arr.copy(); minus[idx] -= eps
        grad[idx] = (fn(plus) - fn(minus)) / (2 * eps)
    return grad


class TestTensorOps:
    @pytest.mark.parametrize("op", [
        lambda x: (x * 3.0 + 1.0).sum(),
        lambda x: (x @ x.transpose()).sum(),
        lambda x: x.relu().sum(),
        lambda x: x.sigmoid().mean(),
        lambda x: x.tanh().sum(),
        lambda x: x.exp().mean(),
        lambda x: (x * x).softmax(axis=-1).sum(),
        lambda x: (x - x.mean(axis=-1, keepdims=True)).sum(),
        lambda x: (x ** 2.0).sum(),
        lambda x: (1.0 / (x + 5.0)).sum(),
        lambda x: x[1:, :2].sum(),
        lambda x: x.reshape(12).sum(),
    ])
    def test_gradcheck(self, op):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(3, 4))

        def value(a):
            return float(op(Tensor(a)).data)

        t = Tensor(arr, requires_grad=True)
        out = op(t)
        out.backward()
        num = numerical_grad(value, arr)
        assert np.abs(num - t.grad).max() < 1e-6

    def test_broadcast_add_grad(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 3.0)

    def test_concat_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = Tensor.concat([a, b], axis=0)
        (out * 2.0).sum().backward()
        assert np.allclose(a.grad, 2.0)
        assert np.allclose(b.grad, 2.0)

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        assert x.grad[0] == pytest.approx(7.0)

    def test_detach_stops_grad(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        d = x.detach()
        assert not d.requires_grad

    def test_pow_requires_scalar(self):
        with pytest.raises(TypeError):
            Tensor(np.ones(2)) ** Tensor(np.ones(2))  # type: ignore

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_matmul_shapes(self, n, m):
        a = Tensor(np.ones((n, m)))
        b = Tensor(np.ones((m, n)))
        assert (a @ b).shape == (n, n)


class TestLayers:
    def test_linear_shapes_and_grad(self):
        rng = np.random.default_rng(2)
        layer = Linear(5, 3, rng)
        x = Tensor(rng.normal(size=(7, 5)))
        out = layer(x)
        assert out.shape == (7, 3)
        out.sum().backward()
        assert layer.weight.grad.shape == (5, 3)
        assert layer.bias.grad.shape == (3,)

    def test_layernorm_statistics(self):
        rng = np.random.default_rng(2)
        ln = LayerNorm(8)
        x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(4, 8)))
        out = ln(x).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_attention_shape_preserved(self):
        rng = np.random.default_rng(2)
        attn = MultiHeadSelfAttention(12, 3, rng)
        x = Tensor(rng.normal(size=(9, 12)))
        assert reference.attention(attn, x).shape == (9, 12)

    def test_attention_dim_head_mismatch(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3, rng)

    def test_encoder_stack(self):
        rng = np.random.default_rng(2)
        enc = TransformerEncoder(12, 3, 2, rng)
        x = Tensor(rng.normal(size=(5, 12)))
        assert reference.encoder_stack(enc, x).shape == (5, 12)

    def test_positional_encoding_properties(self):
        enc = positional_encoding(16, 12)
        assert enc.shape == (16, 12)
        assert np.abs(enc).max() <= 1.0 + 1e-12
        assert not np.allclose(enc[0], enc[1])

    def test_module_collects_nested_params(self):
        rng = np.random.default_rng(2)
        mlp = MLP(4, 8, 2, rng)
        assert len(mlp.parameters()) == 4   # two linears x (W, b)

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        enc = TransformerEncoder(12, 3, 2, rng)
        x = Tensor(np.random.default_rng(0).normal(size=(5, 12)))
        before = reference.encoder_stack(enc, x).data.copy()
        path = tmp_path / "params.npz"
        save_params(enc, path)
        enc2 = TransformerEncoder(12, 3, 2, np.random.default_rng(99))
        load_params(enc2, path)
        after = reference.encoder_stack(enc2, x).data
        assert np.allclose(before, after)

    def test_load_shape_mismatch(self, tmp_path):
        rng = np.random.default_rng(2)
        small = MLP(4, 8, 2, rng)
        path = tmp_path / "p.npz"
        save_params(small, path)
        big = MLP(4, 16, 2, rng)
        with pytest.raises(ValueError, match="shape mismatch"):
            load_params(big, path)


class TestOptimAndLosses:
    def test_sgd_and_adam_reduce_quadratic(self):
        w = Tensor.param(np.array([5.0, -3.0]))
        opt = Adam([w], lr=0.2)
        for _ in range(100):
            loss = (w * w).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert np.abs(w.data).max() < 0.1

    def test_lr_validation(self):
        with pytest.raises(ValueError):
            Adam([], lr=-1)

    def test_bce_extremes(self):
        logits = Tensor(np.array([[10.0], [-10.0]]))
        targets = Tensor(np.array([[1.0], [0.0]]))
        loss = reference.bce_with_logits(logits, targets)
        assert float(loss.data) < 0.01
        wrong = reference.bce_with_logits(
            logits, Tensor(np.array([[0.0], [1.0]])))
        assert float(wrong.data) > 2.0

    def test_pos_weight_scales_positive_term(self):
        logits = Tensor(np.array([[-3.0]]))
        target = Tensor(np.array([[1.0]]))
        base = reference.bce_with_logits(logits, target)
        weighted = reference.bce_with_logits(logits, target,
                                             pos_weight=4.0)
        assert float(weighted.data) == pytest.approx(
            4.0 * float(base.data), rel=1e-6)

    def test_dgi_loss_direction(self):
        good = reference.dgi_loss(Tensor(np.full((5, 1), 8.0)),
                                  Tensor(np.full((5, 1), -8.0)))
        bad = reference.dgi_loss(Tensor(np.full((5, 1), -8.0)),
                                 Tensor(np.full((5, 1), 8.0)))
        assert float(good.data) < float(bad.data)


class TestTraining:
    def test_transformer_learns_toy_task(self):
        """Classify nodes by sign of feature sum — must beat chance."""
        rng = np.random.default_rng(3)
        proj = Linear(4, 12, rng)
        enc = TransformerEncoder(12, 3, 2, rng)
        head = MLP(12, 8, 1, rng)
        opt = Adam(proj.parameters() + enc.parameters()
                   + head.parameters(), lr=3e-3)
        data_rng = np.random.default_rng(4)

        def batch():
            n = int(data_rng.integers(6, 12))
            feats = data_rng.normal(size=(n, 4))
            y = (feats.sum(axis=1) > 0).astype(float)[:, None]
            return feats, y

        for _ in range(150):
            feats, y = batch()
            logits = head(reference.encoder_stack(enc, proj(Tensor(feats))))
            loss = reference.bce_with_logits(logits, Tensor(y))
            opt.zero_grad()
            loss.backward()
            opt.step()
        correct = total = 0
        for _ in range(20):
            feats, y = batch()
            logits = head(
                reference.encoder_stack(enc, proj(Tensor(feats)))).data
            correct += ((logits >= 0) == y).sum()
            total += len(y)
        assert correct / total > 0.85
