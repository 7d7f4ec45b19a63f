"""All six DGL-style models: shapes, gradients, cross-framework agreement."""

import numpy as np
import pytest

from repro.datasets import enzymes
from repro.dglx import batch as dgl_batch
from repro.dglx import build_model
from repro.models import MODEL_NAMES, graph_config, node_config
from repro.nn import cross_entropy
from repro.tensor import Tensor


@pytest.fixture(scope="module")
def tiny():
    ds = enzymes(seed=0, num_graphs=12)
    return ds


def batched(ds):
    g = dgl_batch(ds.graphs)
    labels = np.array([s.y for s in ds.graphs])
    return g, labels


@pytest.mark.parametrize("name", MODEL_NAMES)
class TestGraphTaskModels:
    def test_forward_shape(self, name, tiny):
        cfg = graph_config(name, in_dim=tiny.num_features, n_classes=tiny.num_classes)
        model = build_model(cfg, np.random.default_rng(0))
        g, labels = batched(tiny)
        logits = model(g)
        assert logits.shape == (len(labels), tiny.num_classes)

    def test_all_parameters_receive_gradients(self, name, tiny):
        cfg = graph_config(name, in_dim=tiny.num_features, n_classes=tiny.num_classes)
        model = build_model(cfg, np.random.default_rng(0))
        g, labels = batched(tiny)
        cross_entropy(model(g), labels).backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        if name == "gatedgcn":
            # The last layer's edge-feature BatchNorm output is never
            # consumed (no layer follows), so its parameters legitimately
            # receive no gradient — true of the reference implementation too.
            missing = [n for n in missing if "bn_e" not in n]
        assert not missing, f"parameters without gradient: {missing}"

    def test_node_task_shape(self, name, tiny):
        cfg = node_config(name, in_dim=tiny.num_features, n_classes=5)
        model = build_model(cfg, np.random.default_rng(0))
        model.eval()
        g = dgl_batch([tiny.graphs[0]])
        logits = model(g)
        assert logits.shape == (tiny.graphs[0].num_nodes, 5)


class TestCrossFrameworkAgreement:
    """The two frameworks implement the same function class: with weights
    copied over, forward outputs must agree for the models whose lowering
    is mathematically identical."""

    def _copy_weights(self, src_net, dst_net):
        dst_net.load_state_dict(src_net.state_dict())

    def test_gin_forward_matches_pygx(self, tiny):
        from repro.pygx import Batch, Data, build_model as build_pyg

        cfg = graph_config("gin", in_dim=tiny.num_features, n_classes=tiny.num_classes)
        pyg_net = build_pyg(cfg, np.random.default_rng(0))
        dgl_net = build_model(cfg, np.random.default_rng(1))
        state = {k.replace("conv", "conv"): v for k, v in pyg_net.state_dict().items()}
        dgl_net.load_state_dict(state)
        pyg_net.eval()
        dgl_net.eval()

        pb = Batch.from_data_list([Data.from_sample(g) for g in tiny.graphs])
        db, labels = batched(tiny)
        out_pyg = pyg_net(pb).data
        out_dgl = dgl_net(db).data
        np.testing.assert_allclose(out_pyg, out_dgl, atol=1e-3)

    def test_gat_forward_matches_pygx(self, tiny):
        from repro.pygx import Batch, Data, build_model as build_pyg

        cfg = graph_config("gat", in_dim=tiny.num_features, n_classes=tiny.num_classes)
        pyg_net = build_pyg(cfg, np.random.default_rng(0))
        dgl_net = build_model(cfg, np.random.default_rng(1))
        # parameter names differ (attn_src/attn_dst vs attn_l/attn_r)
        mapping = {}
        for (pn, pv) in pyg_net.state_dict().items():
            dn = pn.replace("attn_src", "attn_l").replace("attn_dst", "attn_r")
            mapping[dn] = pv
        dgl_net.load_state_dict(mapping)
        pyg_net.eval()
        dgl_net.eval()

        pb = Batch.from_data_list([Data.from_sample(g) for g in tiny.graphs])
        db, _ = batched(tiny)
        np.testing.assert_allclose(pyg_net(pb).data, dgl_net(db).data, atol=1e-3)

    def test_monet_forward_matches_pygx(self, tiny):
        from repro.pygx import Batch, Data, build_model as build_pyg

        cfg = graph_config("monet", in_dim=tiny.num_features, n_classes=tiny.num_classes)
        pyg_net = build_pyg(cfg, np.random.default_rng(0))
        dgl_net = build_model(cfg, np.random.default_rng(1))
        dgl_net.load_state_dict(pyg_net.state_dict())
        pyg_net.eval()
        dgl_net.eval()

        pb = Batch.from_data_list([Data.from_sample(g) for g in tiny.graphs])
        db, _ = batched(tiny)
        np.testing.assert_allclose(pyg_net(pb).data, dgl_net(db).data, atol=1e-3)


class TestGatedGCNEdgePath:
    def test_edge_features_initialised_and_updated(self, tiny):
        cfg = graph_config("gatedgcn", in_dim=tiny.num_features, n_classes=tiny.num_classes)
        model = build_model(cfg, np.random.default_rng(0))
        g, _ = batched(tiny)
        model(g)
        assert "e_feat" in g.edata
        assert g.edata["e_feat"].shape == (g.num_edges(), cfg.out_dim)

    def test_uses_more_memory_than_pygx_version(self, tiny):
        from repro.device import Device, use_device
        from repro.pygx import Batch, Data, build_model as build_pyg

        cfg = graph_config("gatedgcn", in_dim=tiny.num_features, n_classes=tiny.num_classes)
        peaks = {}
        for fw in ("pygx", "dglx"):
            dev = Device()
            with use_device(dev):
                if fw == "pygx":
                    net = build_pyg(cfg, np.random.default_rng(0))
                    inputs = Batch.from_data_list(
                        [Data.from_sample(s) for s in tiny.graphs]
                    )
                    labels = inputs.y
                else:
                    net = build_model(cfg, np.random.default_rng(0))
                    inputs = dgl_batch(tiny.graphs)
                    labels = np.array([s.y for s in tiny.graphs])
                loss = cross_entropy(net(inputs), labels)
                loss.backward()
                peaks[fw] = dev.memory.peak
        assert peaks["dglx"] > peaks["pygx"]


class TestGCNNormalisationCost:
    def test_dgl_gcn_layer_issues_extra_normalise_kernels(self, tiny, fresh_device):
        """The paper: DGL normalises features before AND after aggregation."""
        from repro.dglx.models.gcn import GraphConv

        conv = GraphConv(4, 4, np.random.default_rng(0))
        g = dgl_batch(tiny.graphs[:2])
        h = Tensor(np.random.default_rng(0).normal(size=(g.num_nodes(), 4)).astype(np.float32))
        _ = g.csr  # pre-build so only layer kernels are counted
        prof = fresh_device.profiler
        prof.enabled = True
        prof.clear()
        conv(g, h)
        names = [r.name for r in prof.records]
        assert names.count("mul") >= 2  # two degree-normalisation multiplies


class TestGATLowering:
    def test_attention_lowers_to_gsddmm_softmax_gspmm(self, tiny, fresh_device):
        # DGL's lowering: edge scores, softmax and aggregation are fused
        # sparse kernels; no per-edge gather/scatter runs.
        cfg = graph_config("gat", in_dim=tiny.num_features, n_classes=tiny.num_classes)
        model = build_model(cfg, np.random.default_rng(0))
        g, _ = batched(tiny)
        fresh_device.profiler.enabled = True
        model(g)
        names = {r.name for r in fresh_device.profiler.records}
        assert {"gsddmm_add", "edge_softmax", "gspmm"} <= names
        assert not [n for n in names if n.startswith(("gather", "scatter"))]


class TestGatedGCNSemantics:
    def test_residual_requires_matching_dims(self):
        from repro.dglx.models.gatedgcn import GatedGCNConv

        rng = np.random.default_rng(0)
        assert GatedGCNConv(4, 4, rng).residual
        assert not GatedGCNConv(4, 8, rng).residual
