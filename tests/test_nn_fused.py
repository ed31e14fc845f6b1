"""Bit-exactness of the fused batched Graph-Transformer kernel.

The kernel (:mod:`repro.nn.fused`) replaces the op-by-op padded
(B, L, D) encoder graph with one autograd node.  Its contract is
bit-identity with that graph, which lives on in
``tests/encoder_oracle.py``: every comparison here is
``np.array_equal`` — outputs, every parameter gradient, the input
gradient, trained parameter bytes and the selected net set.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (EncoderConfig, GraphTransformer, TrainConfig,
                        build_dataset, decide_mls_nets, train_gnn_mls)
from repro.core.batching import pad_batch
from repro.nn import fused
from repro.nn.tensor import Tensor
from repro.route import GlobalRouter
from repro.rng import SeedBundle
from repro.timing import run_sta

from tests import encoder_oracle as oracle
from tests.conftest import TEST_SEED, build_small_design

#: The paper's encoder (what the flow trains) and a small two-head one.
CONFIGS = [EncoderConfig(),
           EncoderConfig(in_dim=7, d_model=8, heads=2, layers=2,
                         ff_mult=2, max_len=64)]


def _batch(rng: np.random.Generator, lengths: list[int], rows: int,
           in_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """One graph (B = 1) or the graphs followed by fully padded rows
    (B = 16)."""
    mats = [rng.normal(size=(n, in_dim)) for n in lengths[:rows]]
    batch, mask = pad_batch(mats)
    out = np.zeros((rows,) + batch.shape[1:])
    out_mask = np.zeros((rows, batch.shape[1]), dtype=bool)
    out[: len(mats)], out_mask[: len(mats)] = batch, mask
    return out, out_mask


def _run(encode, model: GraphTransformer, batch: np.ndarray,
         mask: np.ndarray, upstream: np.ndarray, input_grad: bool,
         groups: int = 1):
    """(output, parameter gradients, input gradient) of one forward
    and a backward seeded with *upstream*."""
    model.zero_grad()
    features = Tensor(batch, requires_grad=input_grad)
    out = encode(model.proj, model.encoder,
                 model._posenc[: batch.shape[1]], features, mask,
                 groups=groups)
    (out * Tensor(upstream)).sum().backward()
    grads = [p.grad.copy() for p in model.parameters()]
    return out.data, grads, features.grad


def _assert_same(got, want) -> None:
    out_g, grads_g, in_g = got
    out_w, grads_w, in_w = want
    assert np.array_equal(out_g, out_w)
    assert len(grads_g) == len(grads_w)
    for g, w in zip(grads_g, grads_w):
        assert np.array_equal(g, w)
    assert (in_g is None) == (in_w is None)
    if in_g is not None:
        assert np.array_equal(in_g, in_w)


class TestKernelMatchesOracle:
    @given(lengths=st.lists(st.integers(1, 24), min_size=1, max_size=7),
           rows=st.sampled_from([1, 16]),
           config=st.sampled_from(range(len(CONFIGS))),
           input_grad=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_outputs_and_every_gradient_bit_identical(
            self, lengths, rows, config, input_grad, seed):
        """B = 1 or 16 padded rows (a fully padded row included),
        random upstream gradient: the kernel's output, every
        parameter gradient and the input gradient equal the op-by-op
        graph's bit for bit."""
        cfg = CONFIGS[config]
        rng = np.random.default_rng(seed)
        model = GraphTransformer(cfg, np.random.default_rng(seed % 997))
        batch, mask = _batch(rng, lengths, rows, cfg.in_dim)
        upstream = rng.normal(size=batch.shape[:2] + (cfg.d_model,))
        got = _run(fused.encode, model, batch, mask, upstream, input_grad)
        want = _run(oracle.encode, model, batch, mask, upstream,
                    input_grad)
        _assert_same(got, want)

    def test_single_fully_padded_row(self):
        model = GraphTransformer(CONFIGS[0], np.random.default_rng(3))
        batch, mask = np.zeros((1, 5, 9)), np.zeros((1, 5), dtype=bool)
        upstream = np.random.default_rng(3).normal(size=(1, 5, 48))
        got = _run(fused.encode, model, batch, mask, upstream, True)
        assert np.isfinite(got[0]).all()
        _assert_same(got, _run(oracle.encode, model, batch, mask,
                               upstream, True))

    def test_unmasked_batch_and_forward_only_entry(self):
        model = GraphTransformer(CONFIGS[0], np.random.default_rng(4))
        batch = np.random.default_rng(5).normal(size=(3, 6, 9))
        posenc = model._posenc[:6]
        node = fused.encode(model.proj, model.encoder, posenc,
                            Tensor(batch))
        assert np.array_equal(
            node.data, oracle.encode(model.proj, model.encoder, posenc,
                                     Tensor(batch)).data)
        assert np.array_equal(
            fused.infer(model.proj, model.encoder, posenc, batch),
            node.data)

    def test_graph_transformer_routes_batches_to_the_kernel(self):
        """A 3-D input becomes one autograd node; ``infer`` returns
        the same values without one."""
        model = GraphTransformer(CONFIGS[1], np.random.default_rng(6))
        batch, mask = pad_batch([np.ones((4, 7)), np.ones((2, 7))])
        out = model(Tensor(batch), mask)
        assert out._parents and not out._parents[0].requires_grad
        assert np.array_equal(model.infer(batch, mask), out.data)
        with pytest.raises(ValueError, match="max_len"):
            model.infer(np.zeros((1, 65, 7)))


class TestStackedGroups:
    @given(lengths=st.lists(st.integers(1, 24), min_size=1, max_size=16),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_stacked_forward_equals_two_forwards(self, lengths, seed):
        """One (2B, L, D) forward split into two groups equals two
        (B, L, D) forwards — outputs and parameter gradients."""
        rng = np.random.default_rng(seed)
        model = GraphTransformer(CONFIGS[0],
                                 np.random.default_rng(seed % 991))
        clean, mask = pad_batch([rng.normal(size=(n, 9))
                                 for n in lengths])
        corrupt = rng.normal(size=clean.shape) * mask[:, :, None]
        b = len(lengths)
        upstream = rng.normal(size=(2 * b,) + clean.shape[1:2] + (48,))
        posenc = model._posenc[: clean.shape[1]]

        model.zero_grad()
        stacked = fused.encode(model.proj, model.encoder, posenc,
                               Tensor(np.concatenate([clean, corrupt])),
                               np.concatenate([mask, mask]), groups=2)
        pos, neg = fused.split_rows(stacked, 2)
        ((pos * Tensor(upstream[:b])).sum()
         + (neg * Tensor(upstream[b:])).sum()).backward()
        stacked_grads = [p.grad.copy() for p in model.parameters()]

        model.zero_grad()
        first = fused.encode(model.proj, model.encoder, posenc,
                             Tensor(clean), mask)
        second = fused.encode(model.proj, model.encoder, posenc,
                              Tensor(corrupt), mask)
        ((first * Tensor(upstream[:b])).sum()
         + (second * Tensor(upstream[b:])).sum()).backward()

        assert np.array_equal(stacked.data,
                              np.concatenate([first.data, second.data]))
        for got, p in zip(stacked_grads, model.parameters()):
            assert np.array_equal(got, p.grad)

    def test_split_rows_assigns_each_block(self):
        stacked = Tensor(np.arange(12.0).reshape(4, 3),
                         requires_grad=True)
        top, bottom = fused.split_rows(stacked, 2)
        assert np.array_equal(bottom.data, stacked.data[2:])
        (bottom * 3.0).sum().backward()
        assert np.array_equal(stacked.grad[:2], np.zeros((2, 3)))
        assert np.array_equal(stacked.grad[2:], np.full((2, 3), 3.0))

    def test_rows_must_split_evenly(self):
        model = GraphTransformer(CONFIGS[1], np.random.default_rng(1))
        with pytest.raises(ValueError, match="groups"):
            fused.encode(model.proj, model.encoder, model._posenc[:2],
                         Tensor(np.zeros((3, 2, 7))), groups=2)


@pytest.fixture(scope="module")
def small_dataset(hetero_tech):
    design = build_small_design(hetero_tech)
    router = GlobalRouter(design)
    routing = router.route_all()
    return build_dataset(design, router, routing, run_sta(design),
                         num_paths=100, num_labeled=30)


def test_training_through_oracle_is_bit_identical(small_dataset,
                                                  monkeypatch):
    """A short ``train_gnn_mls`` (DGI's stacked pass, fine-tuning and
    batched inference all on the kernel) gives the same parameter
    bytes and the same MLS net set as a run on the op-by-op graph."""
    config = TrainConfig(dgi_epochs=2, finetune_epochs=3, batch_size=4)

    def train():
        model = train_gnn_mls(small_dataset, SeedBundle(TEST_SEED), config)
        params = [p.data.tobytes() for p in
                  model.encoder.parameters() + model.head.parameters()]
        return params, decide_mls_nets(model), model.history

    kernel = train()
    monkeypatch.setattr(fused, "encode", oracle.encode)
    monkeypatch.setattr(fused, "infer", oracle.infer)
    reference = train()
    assert kernel[0] == reference[0]
    assert kernel[1] == reference[1]
    assert kernel[2] == reference[2]

