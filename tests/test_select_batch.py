"""Batched selector-leg equivalence and determinism.

Locks the contract of the padded (B, L, D) selector path against the
per-graph reference in ``tests/select_oracle.py``: batched forwards
match per-graph forwards within 1e-9 (padding rows contribute exact
zeros), the masked losses equal their per-graph means, length
bucketing partitions the epoch order deterministically, the padded
trainer tracks the per-graph gradient-accumulation reference, and two
same-seed runs select the identical net set.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (EncoderConfig, GraphTransformer, TrainConfig,
                        build_dataset, decide_mls_nets, train_gnn_mls)
from repro.core.batching import (length_bucketed_batches, pad_batch,
                                 pad_rows)
from repro.core.dgi import DGIPretrainer
from repro.nn import fused
from repro.nn.tensor import Tensor
from repro.route import GlobalRouter
from repro.timing import run_sta

from tests import select_oracle as reference
from tests.conftest import TEST_SEED, build_small_design
from tests.train_oracle import masked_bce_with_logits

#: Forward/loss equivalence tolerance the issue gates on: padding
#: changes reduction grouping (pairwise summation), never the terms.
TOL = 1e-9

DIM = 7
CFG = EncoderConfig(in_dim=DIM, d_model=8, heads=2, layers=2,
                    ff_mult=2, max_len=64)


def _encoder(seed: int = 0) -> GraphTransformer:
    return GraphTransformer(CFG, np.random.default_rng(seed))


def _mats(rng: np.random.Generator, lengths: list[int]) -> list[np.ndarray]:
    return [rng.normal(size=(n, DIM)) for n in lengths]


lengths_strategy = st.lists(st.integers(1, 24), min_size=1, max_size=7)


class TestBatchedForwardEquivalence:
    @given(lengths=lengths_strategy, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_padded_rows_match_per_graph_forward(self, lengths, seed):
        """Each real row of a padded batched forward equals the
        per-graph (N, D) forward of that graph — including graphs far
        longer than the bucket median, which maximize padding."""
        rng = np.random.default_rng(seed)
        encoder = _encoder(seed % 1000)
        mats = _mats(rng, lengths)
        batch, mask = pad_batch(mats)
        out = encoder(Tensor(batch), mask).data
        for i, m in enumerate(mats):
            alone = reference.encode(encoder, Tensor(m)).data
            np.testing.assert_allclose(out[i, : m.shape[0]], alone,
                                       rtol=0, atol=TOL)

    def test_all_padding_row_is_finite_and_isolated(self):
        """A fully masked row must not poison the real rows (softmax
        over zero kept keys) and must come out finite itself."""
        rng = np.random.default_rng(7)
        encoder = _encoder(3)
        m = rng.normal(size=(5, DIM))
        batch = np.zeros((2, 5, DIM))
        batch[0] = m
        mask = np.zeros((2, 5), dtype=bool)
        mask[0] = True                     # row 1 is pure padding
        out = encoder(Tensor(batch), mask).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0],
                                   reference.encode(encoder, Tensor(m)).data,
                                   rtol=0, atol=TOL)

    @given(lengths=lengths_strategy, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_masked_softmax_grads_flow_like_per_graph(self, lengths, seed):
        """Parameter gradients of a masked batched forward equal the
        sum of per-graph gradients (padding contributes exact zeros)."""
        rng = np.random.default_rng(seed)
        encoder = _encoder(seed % 1000)
        mats = _mats(rng, lengths)
        batch, mask = pad_batch(mats)
        out = encoder(Tensor(batch), mask)
        (out * Tensor(mask[:, :, None].astype(np.float64))).sum().backward()
        batched_grads = [p.grad.copy() for p in encoder.parameters()]
        encoder.zero_grad()
        for m in mats:
            reference.encode(encoder, Tensor(m)).sum().backward()
        for got, p in zip(batched_grads, encoder.parameters()):
            np.testing.assert_allclose(got, p.grad, rtol=0, atol=TOL)
        encoder.zero_grad()


class TestMaskedLosses:
    @given(lengths=lengths_strategy, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_masked_bce_equals_mean_of_per_row_bce(self, lengths, seed):
        rng = np.random.default_rng(seed)
        logits_rows = [rng.normal(size=n) for n in lengths]
        targets_rows = [(rng.random(n) < 0.5).astype(np.float64)
                        for n in lengths]
        length = max(lengths)
        logits = Tensor(pad_rows(logits_rows, length))
        targets = pad_rows(targets_rows, length)
        mask = pad_rows([np.ones(n) for n in lengths], length,
                        dtype=bool)
        batched = masked_bce_with_logits(logits, targets, mask,
                                         pos_weight=2.5)
        per_row = [reference.bce_with_logits(
            Tensor(lo[:, None]), Tensor(t[:, None]), pos_weight=2.5)
            for lo, t in zip(logits_rows, targets_rows)]
        expect = np.mean([float(l.data) for l in per_row])
        assert float(batched.data) == pytest.approx(expect, abs=TOL)

    def test_masked_bce_skips_empty_rows(self):
        logits = Tensor(np.zeros((2, 3)))
        targets = np.ones((2, 3))
        mask = np.array([[True, True, False],
                         [False, False, False]])
        loss = masked_bce_with_logits(logits, targets, mask)
        only = masked_bce_with_logits(Tensor(np.zeros((1, 3))),
                                      np.ones((1, 3)), mask[:1])
        assert float(loss.data) == pytest.approx(float(only.data), abs=TOL)

    def test_batched_dgi_loss_matches_per_graph(self):
        """With corruption pinned deterministic, loss_for_batch equals
        the mean of the per-graph DGI losses over the same graphs."""
        rng = np.random.default_rng(11)
        mats = _mats(rng, [4, 9, 6])
        pre = DGIPretrainer(_encoder(5), np.random.default_rng(2))
        pre.corrupt = lambda m: m[::-1].copy()
        batched = pre.loss_for_batch(mats)
        expect = np.mean([float(reference.dgi_graph_loss(pre, m).data)
                          for m in mats])
        assert float(batched.data) == pytest.approx(expect, abs=TOL)


class TestBucketing:
    @given(n=st.integers(1, 40), batch=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_batches_partition_the_order(self, n, batch, seed):
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, 30, size=n)
        order = rng.permutation(n)
        batches = length_bucketed_batches(lengths, order, batch,
                                          rng=rng if batch > 1 else None)
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(n))
        assert all(len(b) <= batch for b in batches)

    def test_batch_size_one_preserves_order_exactly(self):
        lengths = np.array([5, 2, 9, 1])
        order = np.array([2, 0, 3, 1])
        batches = length_bucketed_batches(lengths, order, 1)
        assert [int(b[0]) for b in batches] == [2, 0, 3, 1]

    def test_same_seed_same_buckets(self):
        lengths = np.random.default_rng(3).integers(1, 30, size=25)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            order = rng.permutation(25)
            runs.append(length_bucketed_batches(lengths, order, 4,
                                                rng=rng))
        assert all((a == b).all() for a, b in zip(*runs))


@pytest.fixture(scope="module")
def trained_pair(hetero_tech):
    """One dataset + the configs the equivalence tests compare."""
    design = build_small_design(hetero_tech)
    router = GlobalRouter(design)
    routing = router.route_all()
    report = run_sta(design)
    dataset = build_dataset(design, router, routing, report,
                            num_paths=100, num_labeled=30)
    config = TrainConfig(dgi_epochs=2, finetune_epochs=3, batch_size=4)
    return dataset, config


def _assert_tracks_reference(dataset, config) -> None:
    """Loss histories within 1e-9 and the identical net set, padded
    path against the per-graph reference."""
    def train():
        model = train_gnn_mls(dataset, TEST_SEED, config)
        return model.history, decide_mls_nets(model)

    hist_v, nets_v = train()
    with reference.per_graph_reference():
        hist_r, nets_r = train()
    for key in ("dgi", "finetune"):
        np.testing.assert_allclose(hist_v[key], hist_r[key],
                                   rtol=0, atol=1e-9)
    assert nets_v == nets_r


class TestTrainerEquivalence:
    def test_vectorized_tracks_accumulation_reference(self, trained_pair):
        """The padded trainer and the per-graph gradient-accumulation
        reference see the same minibatches and produce loss
        trajectories within tolerance plus the identical net set."""
        dataset, config = trained_pair
        _assert_tracks_reference(dataset, config)

    def test_batch_size_one_tracks_the_reference(self, trained_pair):
        """A batch of one takes the padded path too, and still tracks
        the per-graph reference."""
        dataset, config = trained_pair
        _assert_tracks_reference(
            dataset, dataclasses.replace(config, batch_size=1))

    def test_same_seed_selects_identical_nets(self, trained_pair):
        dataset, config = trained_pair
        picks = []
        for _ in range(2):
            model = train_gnn_mls(dataset, TEST_SEED, config)
            picks.append((decide_mls_nets(model), model.history))
        assert picks[0][0] == picks[1][0]
        for key in ("dgi", "finetune"):
            assert picks[0][1][key] == picks[1][1][key]

    def test_batched_inference_matches_per_graph(self, trained_pair):
        dataset, config = trained_pair
        model = train_gnn_mls(dataset, TEST_SEED, config)
        batched = model.net_probabilities(dataset.graphs)
        with reference.per_graph_reference():
            per_graph = model.net_probabilities(dataset.graphs)
        assert batched.keys() == per_graph.keys()
        for name, p in per_graph.items():
            assert batched[name] == pytest.approx(p, abs=TOL)

    def test_reference_never_reaches_the_kernel(self, trained_pair,
                                                monkeypatch):
        """The reference trains and infers op by op, so the
        equivalence above compares two independent computations."""
        def refuse(*_args, **_kwargs):
            raise AssertionError("per-graph reference reached the "
                                 "fused kernel")

        dataset, config = trained_pair
        monkeypatch.setattr(fused, "encode", refuse)
        monkeypatch.setattr(fused, "infer", refuse)
        with reference.per_graph_reference():
            model = train_gnn_mls(dataset, TEST_SEED, config)
            assert model.net_probabilities(dataset.graphs[:5])

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)
