"""All six PyG-style models: shapes, gradients, equation semantics."""

import numpy as np
import pytest

from repro.datasets import enzymes
from repro.models import MODEL_NAMES, graph_config, node_config
from repro.nn import cross_entropy
from repro.pygx import Batch, Data, build_model
from repro.pygx.models.gcn import GCNConv
from repro.pygx.models.gin import GINConv
from repro.tensor import Tensor


@pytest.fixture(scope="module")
def tiny_batch():
    ds = enzymes(seed=0, num_graphs=12)
    batch = Batch.from_data_list([Data.from_sample(g) for g in ds.graphs])
    return ds, batch


@pytest.mark.parametrize("name", MODEL_NAMES)
class TestGraphTaskModels:
    def test_forward_shape(self, name, tiny_batch):
        ds, batch = tiny_batch
        cfg = graph_config(name, in_dim=ds.num_features, n_classes=ds.num_classes)
        model = build_model(cfg, np.random.default_rng(0))
        logits = model(batch)
        assert logits.shape == (batch.num_graphs, ds.num_classes)

    def test_all_parameters_receive_gradients(self, name, tiny_batch):
        ds, batch = tiny_batch
        cfg = graph_config(name, in_dim=ds.num_features, n_classes=ds.num_classes)
        model = build_model(cfg, np.random.default_rng(0))
        loss = cross_entropy(model(batch), batch.y)
        loss.backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert not missing, f"parameters without gradient: {missing}"

    def test_has_four_conv_layers(self, name, tiny_batch):
        ds, _ = tiny_batch
        cfg = graph_config(name, in_dim=ds.num_features, n_classes=ds.num_classes)
        model = build_model(cfg, np.random.default_rng(0))
        assert model.conv_names == ["conv1", "conv2", "conv3", "conv4"]

    def test_eval_mode_deterministic(self, name, tiny_batch):
        ds, batch = tiny_batch
        cfg = graph_config(name, in_dim=ds.num_features, n_classes=ds.num_classes)
        model = build_model(cfg, np.random.default_rng(0))
        model.eval()
        a = model(batch).data
        b = model(batch).data
        np.testing.assert_allclose(a, b, atol=1e-6)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_node_task_models_emit_per_node_logits(name):
    ds = enzymes(seed=0, num_graphs=4)
    g = ds.graphs[0]
    batch = Batch.from_data_list([Data.from_sample(g)])
    cfg = node_config(name, in_dim=ds.num_features, n_classes=5)
    model = build_model(cfg, np.random.default_rng(0))
    model.eval()  # disable dropout
    logits = model(batch)
    assert logits.shape == (g.num_nodes, 5)


class TestGCNSemantics:
    def test_symmetric_normalisation_on_pair(self):
        """Two nodes + self loops: hand-computed D^-1/2 A D^-1/2 X W."""
        conv = GCNConv(1, 1, np.random.default_rng(0), activation=False)
        conv.linear.weight.data[:] = 1.0
        conv.linear.bias.data[:] = 0.0
        x = Tensor(np.array([[1.0], [2.0]], np.float32))
        edge_index = np.array([[0, 1], [1, 0]])
        out = conv(x, edge_index, 2)
        # with self loops every degree is 2 -> out_i = (x_i + x_j) / 2
        np.testing.assert_allclose(out.data, [[1.5], [1.5]], rtol=1e-5)

    def test_isolated_node_keeps_self_contribution(self):
        conv = GCNConv(1, 1, np.random.default_rng(0), activation=False)
        conv.linear.weight.data[:] = 1.0
        conv.linear.bias.data[:] = 0.0
        x = Tensor(np.array([[4.0]], np.float32))
        out = conv(x, np.zeros((2, 0), np.int64), 1)
        np.testing.assert_allclose(out.data, [[4.0]], rtol=1e-5)


class TestGINSemantics:
    def test_eps_scales_self_term(self):
        conv = GINConv(1, 1, np.random.default_rng(0), learn_eps=True, activation=False)
        conv.eps.data[:] = 1.0  # (1 + eps) = 2
        # identity MLP
        conv.fc_v.weight.data[:] = 1.0
        conv.fc_v.bias.data[:] = 0.0
        conv.fc_w.weight.data[:] = 1.0
        conv.fc_w.bias.data[:] = 0.0
        conv.eval()
        x = Tensor(np.array([[1.0], [10.0]], np.float32))
        out = conv(x, np.array([[0], [1]]), 2)
        # node0: 2*1 + 0 ; node1: 2*10 + 1 (eval BN uses running stats ~ identity)
        np.testing.assert_allclose(out.data, [[2.0], [21.0]], rtol=1e-3)

    def test_fixed_eps_has_no_parameter(self):
        conv = GINConv(2, 2, np.random.default_rng(0), learn_eps=False)
        assert conv.eps is None


class TestGATSemantics:
    def test_uniform_attention_reduces_to_mean(self):
        from repro.pygx.models.gat import GATConv

        conv = GATConv(2, head_dim=2, heads=1, rng=np.random.default_rng(0))
        conv.attn_src.data[:] = 0.0
        conv.attn_dst.data[:] = 0.0  # all logits zero -> uniform attention
        x = Tensor(np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 0.0]], np.float32))
        edge_index = np.array([[0, 1], [2, 2]])
        out = conv(x, edge_index, 3)
        z = x.data @ conv.fc.weight.data
        expected_node2 = (z[0] + z[1]) / 2.0
        # ELU is identity for positive values; compare via inverse where safe
        got = out.data[2]
        expected = np.where(expected_node2 > 0, expected_node2, np.expm1(expected_node2))
        np.testing.assert_allclose(got, expected, rtol=1e-4)


    def test_attention_lowers_to_gather_softmax_scatter(self, tiny_batch, fresh_device):
        # The paper's PyG lowering: per-edge messages are gathered and
        # scattered; no fused GSDDMM / GSpMM kernel runs.
        ds, batch = tiny_batch
        cfg = graph_config("gat", in_dim=ds.num_features, n_classes=ds.num_classes)
        model = build_model(cfg, np.random.default_rng(0))
        fresh_device.profiler.enabled = True
        model(batch)
        names = {r.name for r in fresh_device.profiler.records}
        assert {"gather", "scatter_max", "scatter_sum"} <= names
        assert not [n for n in names if n.startswith(("gsddmm", "gspmm", "edge_softmax"))]


class TestGatedGCNSemantics:
    def test_residual_requires_matching_dims(self):
        from repro.pygx.models.gatedgcn import GatedGCNConv

        rng = np.random.default_rng(0)
        assert GatedGCNConv(4, 4, rng).residual
        assert not GatedGCNConv(4, 8, rng).residual


class TestFactory:
    def test_unknown_model_rejected_at_config(self):
        with pytest.raises((KeyError, ValueError)):
            graph_config("transformer", in_dim=4, n_classes=2)

    def test_builder_returns_distinct_instances(self):
        cfg = graph_config("gcn", in_dim=4, n_classes=2)
        a = build_model(cfg, np.random.default_rng(0))
        b = build_model(cfg, np.random.default_rng(0))
        assert a is not b
