"""Hyper-parameter tables (II and III) and the shared readout head."""

import numpy as np
import pytest

from repro.models import (
    ANISOTROPIC,
    ISOTROPIC,
    MODEL_NAMES,
    MLPReadout,
    ModelConfig,
    graph_config,
    node_config,
)
from repro.tensor import Tensor


class TestTableII:
    """Node-classification settings (Table II)."""

    @pytest.mark.parametrize(
        "model,hidden,lr",
        [
            ("gcn", 80, 0.01),
            ("gat", 32, 0.01),
            ("gin", 64, 0.005),
            ("sage", 32, 0.001),
            ("monet", 64, 0.003),
            ("gatedgcn", 64, 0.001),
        ],
    )
    def test_hidden_and_lr(self, model, hidden, lr):
        cfg = node_config(model, in_dim=100, n_classes=7)
        assert cfg.hidden == hidden
        assert cfg.lr == lr

    def test_two_layers_for_node_task(self):
        assert node_config("gcn", 10, 3).n_layers == 2

    def test_readout_mean(self):
        assert node_config("gcn", 10, 3).readout == "mean"

    def test_gat_heads_fixed_to_8(self):
        assert node_config("gat", 10, 3).n_heads == 8

    def test_monet_kernels_fixed_to_2(self):
        cfg = node_config("monet", 10, 3)
        assert cfg.kernels == 2
        assert cfg.pseudo_dim == 2


class TestTableIII:
    """Graph-classification settings (Table III)."""

    @pytest.mark.parametrize(
        "model,hidden,out,lr",
        [
            ("gcn", 128, 128, 1e-3),
            ("gat", 32, 256, 1e-3),
            ("gin", 80, 80, 1e-3),
            ("sage", 96, 96, 7e-4),
            ("monet", 80, 80, 1e-3),
            ("gatedgcn", 96, 96, 7e-4),
        ],
    )
    def test_dims_and_init_lr(self, model, hidden, out, lr):
        cfg = graph_config(model, in_dim=18, n_classes=6)
        assert (cfg.hidden, cfg.out_dim, cfg.lr) == (hidden, out, lr)

    def test_four_layers(self):
        for model in MODEL_NAMES:
            assert graph_config(model, 18, 6).n_layers == 4

    def test_learning_setup(self):
        cfg = graph_config("gcn", 18, 6)
        assert cfg.lr_reduce_factor == 0.5
        assert cfg.lr_patience == 25
        assert cfg.min_lr == 1e-6

    def test_gatedgcn_edge_feat_false(self):
        assert not graph_config("gatedgcn", 18, 6).edge_feat

    def test_gin_learns_eps(self):
        assert graph_config("gin", 18, 6).learn_eps_gin


class TestConfigValidation:
    def test_model_families(self):
        assert set(ISOTROPIC) | set(ANISOTROPIC) == set(MODEL_NAMES)
        assert not set(ISOTROPIC) & set(ANISOTROPIC)

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            node_config("mlp", 4, 2)

    def test_invalid_task(self):
        with pytest.raises(ValueError):
            ModelConfig("gcn", "edge", 4, 4, 4, 2, 2, 0.1)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            ModelConfig("gcn", "node", 0, 4, 4, 2, 2, 0.1)

    def test_overrides(self):
        cfg = graph_config("gcn", 18, 6, n_layers=2, dropout=0.3)
        assert cfg.n_layers == 2
        assert cfg.dropout == 0.3


class TestMLPReadout:
    def test_halving_widths(self):
        head = MLPReadout(128, 6, rng=np.random.default_rng(0))
        widths = [layer.out_features for layer in head.hidden_layers]
        assert widths == [64, 32]
        assert head.out.out_features == 6

    def test_forward_shape(self):
        head = MLPReadout(64, 10, rng=np.random.default_rng(0))
        out = head(Tensor(np.zeros((5, 64), np.float32)))
        assert out.shape == (5, 10)

    def test_never_narrower_than_classes(self):
        head = MLPReadout(8, 6, rng=np.random.default_rng(0))
        widths = [layer.out_features for layer in head.hidden_layers]
        assert all(w >= 6 for w in widths)
