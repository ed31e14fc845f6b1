"""Bit-exactness of one selector training step's fused parts.

The DGI and fine-tune objectives (:func:`repro.nn.fused.dgi_loss`,
:func:`repro.nn.fused.head_bce_loss`), the head's inference forward
and the flat-buffer :class:`repro.nn.optim.Adam` each replace an
op-by-op computation that lives on in ``tests/train_oracle.py``.
Every comparison here is ``np.array_equal`` (or equal bytes): loss
values, every head and discriminator gradient, the gradient handed to
the encoder node, parameters and Adam moments after each step, and
the parameter bytes of a short training run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (EncoderConfig, GraphTransformer, TrainConfig,
                        build_dataset, decide_mls_nets, train_gnn_mls)
from repro.core import dgi as dgi_module
from repro.core import trainer as trainer_module
from repro.core.dgi import DGIPretrainer
from repro.nn import MLP, fused, optim
from repro.nn.tensor import Tensor
from repro.route import GlobalRouter
from repro.timing import run_sta

from tests import train_oracle as oracle
from tests.conftest import TEST_SEED, build_small_design

#: The paper's model width (what the flow trains) and a small one.
DIMS = [48, 8]

lengths_strategy = st.lists(st.integers(1, 24), min_size=1, max_size=7)


def _mask(lengths: list[int], padding_rows: int) -> np.ndarray:
    """(B, L) key mask of *lengths* followed by all-padding rows."""
    length = max(lengths)
    mask = np.zeros((len(lengths) + padding_rows, length), dtype=bool)
    for row, n in enumerate(lengths):
        mask[row, :n] = True
    return mask


def _same_grads(got: list, want: list) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g is not None and w is not None
        assert np.array_equal(g, w)


class TestDgiObjective:
    @staticmethod
    def _run(loss_fn, data, weight, seed_grad, mask):
        """(loss bytes, discriminator gradient, encoder-node gradient)
        of one forward and backward."""
        stacked = Tensor(data, requires_grad=True)
        discriminator = Tensor.param(weight)
        if seed_grad is not None:
            discriminator.grad = seed_grad.copy()
        loss = loss_fn(stacked, discriminator, mask)
        loss.backward()
        return loss.data.tobytes(), discriminator.grad, stacked.grad

    @given(lengths=lengths_strategy, padding_rows=st.integers(0, 3),
           dim=st.sampled_from(DIMS), seeded=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_loss_and_gradients_bit_identical(self, lengths, padding_rows,
                                              dim, seeded, seed):
        """Padded rows hold garbage (as the encoder's do) and whole
        rows may be padding; an already-held discriminator gradient
        takes the clean term, then the corrupted one, as the engine
        adds them."""
        rng = np.random.default_rng(seed)
        mask = _mask(lengths, padding_rows)
        data = rng.normal(size=(2 * mask.shape[0], mask.shape[1], dim))
        weight = rng.normal(scale=0.3, size=(dim, dim))
        seed_grad = rng.normal(size=(dim, dim)) if seeded else None
        got = self._run(fused.dgi_loss, data, weight, seed_grad, mask)
        want = self._run(oracle.dgi_loss, data, weight, seed_grad, mask)
        assert got[0] == want[0]
        _same_grads(got[1:], want[1:])

    def test_through_the_encoder_node(self, monkeypatch):
        """``DGIPretrainer.loss_for_batch`` (stacked encoder node plus
        objective node): equal loss and every encoder and
        discriminator gradient."""
        config = EncoderConfig(in_dim=7, d_model=8, heads=2, layers=2,
                               ff_mult=2, max_len=64)
        rng = np.random.default_rng(4)
        mats = [rng.normal(size=(n, 7)) for n in (4, 9, 1, 6)]

        def run():
            pre = DGIPretrainer(
                GraphTransformer(config, np.random.default_rng(5)),
                np.random.default_rng(6))
            loss = pre.loss_for_batch(mats)
            loss.backward()
            return loss.data.tobytes(), [p.grad for p in pre.parameters()]

        got = run()
        monkeypatch.setattr(fused, "dgi_loss", oracle.dgi_loss)
        want = run()
        assert got[0] == want[0]
        _same_grads(got[1], want[1])


class TestHeadObjective:
    @staticmethod
    def _run(loss_fn, data, head_seed, seeded, targets, mask, pos_weight):
        """(loss bytes, head gradients, encoder-node gradient)."""
        dim = data.shape[-1]
        head = MLP(dim, 5, 1, np.random.default_rng(head_seed))
        if seeded:
            grad_rng = np.random.default_rng(head_seed + 1)
            for p in head.parameters():
                p.grad = grad_rng.normal(size=p.data.shape)
        embeddings = Tensor(data, requires_grad=True)
        loss = loss_fn(embeddings, head, targets, mask, pos_weight)
        loss.backward()
        return (loss.data.tobytes(), [p.grad for p in head.parameters()],
                embeddings.grad)

    @given(lengths=lengths_strategy, padding_rows=st.integers(0, 3),
           undecidable=st.lists(st.booleans(), min_size=7, max_size=7),
           dim=st.sampled_from(DIMS),
           pos_weight=st.sampled_from([1.0, 2.5, 10.0]),
           seeded=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_loss_and_gradients_bit_identical(
            self, lengths, padding_rows, undecidable, dim, pos_weight,
            seeded, seed):
        """Rows with no decidable node, all-padding rows and garbage
        in padded positions; head gradients already held are added
        to, as the engine adds."""
        rng = np.random.default_rng(seed)
        mask = _mask(lengths, padding_rows)
        decidable = rng.random(mask.shape) < 0.6
        for row, empty in enumerate(undecidable[:len(lengths)]):
            if empty:
                decidable[row] = False
        targets = (rng.random(mask.shape) < 0.4).astype(np.float64)
        data = rng.normal(size=mask.shape + (dim,))
        head_seed = seed % 1000
        got = self._run(fused.head_bce_loss, data, head_seed, seeded,
                        targets, decidable & mask, pos_weight)
        want = self._run(oracle.head_bce_loss, data, head_seed, seeded,
                         targets, decidable & mask, pos_weight)
        assert got[0] == want[0]
        _same_grads(got[1], want[1])
        _same_grads([got[2]], [want[2]])

    def test_batch_without_a_decidable_node(self):
        """Zero loss, and gradients equal to the oracle's (zeros)."""
        rng = np.random.default_rng(8)
        data = rng.normal(size=(3, 4, 8))
        mask = np.zeros((3, 4), dtype=bool)
        targets = np.ones((3, 4))
        got = self._run(fused.head_bce_loss, data, 2, False, targets,
                        mask, 2.0)
        want = self._run(oracle.head_bce_loss, data, 2, False, targets,
                         mask, 2.0)
        assert got[0] == want[0] == np.float64(0.0).tobytes()
        _same_grads(got[1] + [got[2]], want[1] + [want[2]])

    @given(lengths=lengths_strategy, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_inference_probabilities_bit_identical(self, lengths, seed):
        rng = np.random.default_rng(seed)
        head = MLP(48, 32, 1, np.random.default_rng(seed % 997))
        embeddings = rng.normal(size=(len(lengths), max(lengths), 48))
        got = fused.head_probabilities(head, embeddings)
        assert got.shape == embeddings.shape[:2]
        assert np.array_equal(
            got, oracle.head_probabilities(head, embeddings))


def _params(rng: np.random.Generator) -> list[Tensor]:
    shapes = [(3,), (4, 5), (2, 3, 2), (1,), (6, 1)]
    return [Tensor.param(rng.normal(size=s)) for s in shapes]


class TestFlatAdam:
    #: Index of the parameter that never gets a gradient, and of one
    #: that goes without on every third step.
    NEVER, SOMETIMES = 2, 4

    @pytest.mark.parametrize("lr", [1e-3, 0.2])
    def test_matches_per_parameter_adam(self, lr):
        """Seven steps: every parameter, the flat buffer and the
        moments equal the per-parameter loop's; the gradless
        parameter's data and moments never move."""
        flat_params = _params(np.random.default_rng(1))
        loop_params = _params(np.random.default_rng(1))
        frozen = flat_params[self.NEVER].data.copy()
        flat = optim.Adam(flat_params, lr=lr)
        loop = oracle.Adam(loop_params, lr=lr)
        grad_rng = np.random.default_rng(2)
        for step in range(7):
            flat.zero_grad()
            loop.zero_grad()
            for i, (a, b) in enumerate(zip(flat_params, loop_params)):
                if i == self.NEVER or (i == self.SOMETIMES
                                       and step % 3 == 1):
                    continue
                grad = grad_rng.normal(size=a.data.shape)
                a.grad, b.grad = grad.copy(), grad.copy()
            flat.step()
            loop.step()
            for i, (a, b) in enumerate(zip(flat_params, loop_params)):
                assert a.data.tobytes() == b.data.tobytes()
                lo, hi = flat._spans[i]
                assert np.array_equal(flat._m[lo:hi], loop._m[i].ravel())
                assert np.array_equal(flat._v[lo:hi], loop._v[i].ravel())
            lo, hi = flat._spans[self.NEVER]
            assert np.array_equal(flat_params[self.NEVER].data, frozen)
            assert not flat._m[lo:hi].any() and not flat._v[lo:hi].any()

    def test_parameters_become_views_of_one_buffer(self):
        params = _params(np.random.default_rng(3))
        before = [p.data.copy() for p in params]
        adam = optim.Adam(params)
        for p, old in zip(params, before):
            assert np.shares_memory(p.data, adam._flat)
            assert np.array_equal(p.data, old)


@pytest.fixture(scope="module")
def small_dataset(hetero_tech):
    design = build_small_design(hetero_tech)
    router = GlobalRouter(design)
    routing = router.route_all()
    return build_dataset(design, router, routing, run_sta(design),
                         num_paths=100, num_labeled=30)


@pytest.mark.parametrize("swap", ["objectives", "adam"])
def test_training_through_oracle_is_bit_identical(small_dataset,
                                                  monkeypatch, swap):
    """A short ``train_gnn_mls`` gives the same parameter bytes, loss
    history and MLS net set with the op-by-op objectives and head, or
    with the per-parameter Adam, swapped in."""
    config = TrainConfig(dgi_epochs=2, finetune_epochs=3, batch_size=4)

    def train():
        model = train_gnn_mls(small_dataset, TEST_SEED, config)
        params = [p.data.tobytes() for p in
                  model.encoder.parameters() + model.head.parameters()]
        return params, decide_mls_nets(model), model.history

    kernel = train()
    if swap == "objectives":
        monkeypatch.setattr(fused, "dgi_loss", oracle.dgi_loss)
        monkeypatch.setattr(fused, "head_bce_loss", oracle.head_bce_loss)
        monkeypatch.setattr(fused, "head_probabilities",
                            oracle.head_probabilities)
    else:
        monkeypatch.setattr(dgi_module, "Adam", oracle.Adam)
        monkeypatch.setattr(trainer_module, "Adam", oracle.Adam)
    reference = train()
    assert kernel == reference

