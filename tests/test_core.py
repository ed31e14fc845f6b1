"""GNN-MLS core tests: features, hypergraph, dataset, model, decisions."""

import numpy as np
import pytest

from repro.core import (EncoderConfig, FEATURE_NAMES, GraphTransformer,
                        NodeFeatureExtractor, TrainConfig, build_dataset,
                        build_path_graph, decide_mls_nets, train_gnn_mls)
from repro.core.dgi import DGIPretrainer
from repro.core.classifier import DecisionHead
from repro.errors import FlowError, TrainingError
from repro.nn import Tensor
from repro.route import GlobalRouter
from repro.timing import extract_worst_paths, run_sta

from tests.conftest import TEST_SEED, build_small_design


@pytest.fixture(scope="module")
def small_dataset(hetero_tech):
    design = build_small_design(hetero_tech)
    router = GlobalRouter(design)
    routing = router.route_all()
    report = run_sta(design)
    dataset = build_dataset(design, router, routing, report,
                            num_paths=120, num_labeled=40)
    return design, router, routing, report, dataset


class TestFeatures:
    def test_feature_vector_shape(self, small_dataset):
        design, *_ , dataset = small_dataset
        extractor = dataset.extractor
        assert extractor.dim == len(FEATURE_NAMES)
        report = run_sta(design)
        path = extract_worst_paths(report, 1)[0]
        driver, net = path.stages()[0]
        vec = extractor.raw_features(driver, net)
        assert vec.shape == (extractor.dim,)
        # Location features match placement.
        loc = design.placement.of_pin(driver)
        assert vec[0] == pytest.approx(loc.x)
        assert vec[1] == pytest.approx(loc.y)
        assert vec[2] > 0                    # cell delay
        assert vec[4] >= 0                   # wirelength

    def test_paper_feature_subset(self, small_dataset):
        design, *_ = small_dataset
        extractor = NodeFeatureExtractor(design, extra_features=False)
        assert extractor.dim == 7

    def test_non_driver_rejected(self, small_dataset):
        design, *_ , dataset = small_dataset
        net = next(iter(design.netlist.signal_nets()))
        sink = net.sinks[0]
        with pytest.raises(FlowError, match="not a driving pin"):
            dataset.extractor.raw_features(sink, net)

    def test_normalizer_standardizes(self, small_dataset):
        *_, dataset = small_dataset
        matrix = np.vstack([g.features for g in dataset.graphs])
        normalized = dataset.extractor.normalize(matrix)
        assert np.abs(normalized.mean(axis=0)).max() < 1e-6
        stds = normalized.std(axis=0)
        assert np.all((stds < 1.5) | np.isclose(stds, 0.0))


class TestHypergraph:
    def test_graph_mirrors_path(self, small_dataset):
        design, *_ , dataset = small_dataset
        report = run_sta(design)
        path = extract_worst_paths(report, 1)[0]
        graph = build_path_graph(path, dataset.extractor)
        assert graph.depth == len(path.stages())
        assert graph.features.shape == (graph.depth,
                                        dataset.extractor.dim)
        assert graph.endpoint == path.endpoint
        # Cross-tier nets are non-decidable.
        tiers = design.require_tiers()
        for name, ok in zip(graph.net_names, graph.decidable):
            assert ok == (not tiers.is_cross_tier(design.netlist.net(name)))


class TestDataset:
    def test_sizes(self, small_dataset):
        *_, dataset = small_dataset
        assert len(dataset.graphs) <= 120
        assert len(dataset.labeled_graphs) <= 40
        for g in dataset.labeled_graphs:
            assert g.labels is not None
            assert g.labels.shape == (g.depth,)

    def test_labels_follow_oracle(self, small_dataset):
        *_, dataset = small_dataset
        for g in dataset.labeled_graphs[:5]:
            for name, lab in zip(g.net_names, g.labels):
                if name in dataset.net_labels:
                    assert lab == float(dataset.net_labels[name].label)

    def test_balance_in_unit_interval(self, small_dataset):
        *_, dataset = small_dataset
        assert 0.0 <= dataset.label_balance() <= 1.0

    def test_num_labeled_bound(self, small_dataset):
        design, router, routing, report, _ = small_dataset
        with pytest.raises(FlowError):
            build_dataset(design, router, routing, report,
                          num_paths=10, num_labeled=20)


class TestModel:
    def test_dgi_loss_decreases(self, small_dataset):
        *_, dataset = small_dataset
        rng = np.random.default_rng(0)
        encoder = GraphTransformer(
            EncoderConfig(in_dim=dataset.extractor.dim, d_model=24,
                          heads=3, layers=1), rng)
        pretrainer = DGIPretrainer(encoder, np.random.default_rng(1))
        history = pretrainer.pretrain(dataset.graphs[:30],
                                      dataset.extractor.normalize,
                                      epochs=4, lr=2e-3)
        assert history[-1] < history[0]

    def test_training_produces_useful_classifier(self, small_dataset):
        *_, dataset = small_dataset
        config = TrainConfig(dgi_epochs=2, finetune_epochs=10)
        model = train_gnn_mls(dataset, TEST_SEED, config)
        # Model probabilities should correlate with oracle labels.
        probs = model.net_probabilities(dataset.labeled_graphs)
        pos = [probs[n] for n, lab in dataset.net_labels.items()
               if lab.helps and n in probs]
        neg = [probs[n] for n, lab in dataset.net_labels.items()
               if not lab.helps and n in probs]
        assert pos and neg
        assert np.mean(pos) > np.mean(neg)

    def test_ablation_no_dgi_still_trains(self, small_dataset):
        *_, dataset = small_dataset
        config = TrainConfig(use_dgi=False, finetune_epochs=4)
        model = train_gnn_mls(dataset, TEST_SEED, config)
        assert "dgi" not in model.history
        assert model.history["finetune"]

    def test_empty_labels_rejected(self, small_dataset):
        *_, dataset = small_dataset
        import copy
        bare = copy.copy(dataset)
        bare.labeled_graphs = []
        with pytest.raises(TrainingError):
            train_gnn_mls(bare, TEST_SEED)

    def test_decide_threshold_monotone(self, small_dataset):
        *_, dataset = small_dataset
        config = TrainConfig(dgi_epochs=1, finetune_epochs=3)
        model = train_gnn_mls(dataset, TEST_SEED, config)
        loose = decide_mls_nets(model, threshold=0.3)
        strict = decide_mls_nets(model, threshold=0.7)
        assert strict <= loose

    def test_head_probabilities_in_unit_interval(self, small_dataset):
        *_, dataset = small_dataset
        rng = np.random.default_rng(0)
        head = DecisionHead(24, 8, rng)
        embeddings = Tensor(rng.normal(size=(10, 24)))
        probs = head.probabilities(embeddings)
        assert probs.shape == (10,)
        assert ((probs >= 0) & (probs <= 1)).all()


class TestEncoderConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            EncoderConfig(d_model=50, heads=3)

    def test_path_length_guard(self):
        rng = np.random.default_rng(0)
        enc = GraphTransformer(EncoderConfig(in_dim=4, d_model=12,
                                             heads=3, max_len=8), rng)
        with pytest.raises(ValueError, match="exceeds max_len"):
            enc(Tensor(np.zeros((1, 9, 4))))
