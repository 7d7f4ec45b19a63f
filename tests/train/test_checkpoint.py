"""Checkpoint save/load round-trips."""

import numpy as np
import pytest

from repro.datasets import enzymes
from repro.models import graph_config
from repro.pygx import Batch, Data, build_model
from repro.tensor import no_grad
from repro.train import (
    checkpoint_name,
    load_checkpoint,
    load_model,
    save_checkpoint,
)


@pytest.fixture()
def model():
    cfg = graph_config("gcn", in_dim=18, n_classes=6)
    return build_model(cfg, np.random.default_rng(0))


class TestCheckpoint:
    def test_roundtrip_restores_parameters(self, model, tmp_path):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, path)
        other = build_model(model.config, np.random.default_rng(99))
        assert not np.allclose(other.conv1.linear.weight.data, model.conv1.linear.weight.data)
        load_checkpoint(other, path)
        np.testing.assert_array_equal(
            other.conv1.linear.weight.data, model.conv1.linear.weight.data
        )

    def test_roundtrip_restores_buffers(self, tmp_path):
        cfg = graph_config("gin", in_dim=18, n_classes=6)
        net = build_model(cfg, np.random.default_rng(0))
        net.conv1.bn.running_mean[:] = 7.0
        path = tmp_path / "gin.npz"
        save_checkpoint(net, path)
        other = build_model(cfg, np.random.default_rng(1))
        load_checkpoint(other, path)
        np.testing.assert_allclose(other.conv1.bn.running_mean, 7.0)

    def test_restored_model_same_outputs(self, model, tmp_path):
        ds = enzymes(seed=0, num_graphs=8)
        batch = Batch.from_data_list([Data.from_sample(g) for g in ds.graphs])
        path = tmp_path / "m.npz"
        save_checkpoint(model, path)
        other = build_model(model.config, np.random.default_rng(5))
        load_checkpoint(other, path)
        model.eval()
        other.eval()
        np.testing.assert_allclose(model(batch).data, other(batch).data, atol=1e-6)

    def test_mismatched_architecture_rejected(self, model, tmp_path):
        path = tmp_path / "m.npz"
        save_checkpoint(model, path)
        other_cfg = graph_config("gcn", in_dim=18, n_classes=6, hidden=64)
        other = build_model(other_cfg, np.random.default_rng(0))
        with pytest.raises((KeyError, ValueError)):
            load_checkpoint(other, path)


def _build(framework, config, seed):
    if framework == "pygx":
        from repro.pygx import build_model as build
    else:
        from repro.dglx import build_model as build
    return build(config, np.random.default_rng(seed))


def _fixed_batch(framework, n=8):
    graphs = enzymes(seed=0, num_graphs=n).graphs
    if framework == "pygx":
        return Batch.from_data_list([Data.from_sample(g) for g in graphs])
    from repro.dglx import batch as dgl_batch

    return dgl_batch(graphs)


class TestCheckpointAcrossFrameworks:
    """Save -> load -> identical predictions, for GCN and GAT in both packs."""

    @pytest.mark.parametrize("framework", ["pygx", "dglx"])
    @pytest.mark.parametrize("model_name", ["gcn", "gat"])
    def test_roundtrip_identical_predictions(self, framework, model_name, tmp_path):
        config = graph_config(model_name, in_dim=18, n_classes=6)
        source = _build(framework, config, seed=0)
        path = tmp_path / checkpoint_name(framework, model_name, "enzymes")
        save_checkpoint(source, path)

        restored = load_model(framework, config, path)
        source.eval()
        restored.eval()
        inputs = _fixed_batch(framework)
        with no_grad():
            expected = source(inputs).data
            actual = restored(_fixed_batch(framework)).data
        np.testing.assert_array_equal(actual, expected)
        np.testing.assert_array_equal(
            np.argmax(actual, axis=1), np.argmax(expected, axis=1)
        )

    def test_load_model_rejects_unknown_framework(self, tmp_path):
        config = graph_config("gcn", in_dim=18, n_classes=6)
        path = tmp_path / "m.npz"
        save_checkpoint(_build("pygx", config, seed=0), path)
        with pytest.raises(ValueError, match="framework"):
            load_model("torch", config, path)

    def test_checkpoint_name_is_canonical(self):
        assert checkpoint_name("pygx", "gat", "enzymes") == "pygx_gat_enzymes.npz"
