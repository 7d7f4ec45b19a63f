"""DGL-style framework: heterograph, builtins, batching, readout."""

import numpy as np
import pytest

from repro.dglx import (
    DGLGraph,
    GraphDataLoader,
    batch,
    function as fn,
    mean_nodes,
)
from repro.dglx.function import EDGE_BINARY_OPS, EDGE_TARGETS, EdgeFunc
from repro.graph import GraphSample
from repro.tensor import Tensor, edge_softmax, gsddmm


def sample(n_nodes=3, label=0, seed=0):
    rng = np.random.default_rng(seed)
    ring = np.arange(n_nodes)
    edge_index = np.stack([ring, np.roll(ring, -1)])
    x = rng.normal(size=(n_nodes, 2)).astype(np.float32)
    return GraphSample(edge_index, x, label)


class TestDGLGraph:
    def test_heterograph_metadata(self):
        g = DGLGraph.from_sample(sample(3))
        assert g.ntypes == ["_N"]
        assert g.canonical_etypes == [("_N", "_E", "_N")]

    def test_structure_queries(self):
        g = DGLGraph.from_sample(sample(4))
        assert g.num_nodes() == 4
        assert g.num_edges() == 4
        np.testing.assert_array_equal(g.in_degrees(), np.ones(4))

    def test_csr_cached(self):
        g = DGLGraph.from_sample(sample(3))
        assert g.csr is g.csr

    def test_csr_build_launches_kernel(self, fresh_device):
        g = DGLGraph.from_sample(sample(3))
        fresh_device.profiler.enabled = True
        _ = g.csr
        assert "coo_to_csr" in [r.name for r in fresh_device.profiler.records]

    def test_src_dst_length_mismatch(self):
        with pytest.raises(ValueError):
            DGLGraph(np.array([0]), np.array([0, 1]), 2)


class TestUpdateAll:
    def test_copy_u_sum_matches_manual(self):
        g = DGLGraph.from_sample(sample(3))
        x = np.array([[1.0], [10.0], [100.0]], np.float32)
        g.ndata["h"] = Tensor(x)
        g.update_all(fn.copy_u("h", "m"), fn.sum("m", "out"))
        np.testing.assert_allclose(g.ndata["out"].data, [[100.0], [1.0], [10.0]])

    def test_copy_u_mean(self):
        s = GraphSample(np.array([[0, 1], [2, 2]]), np.zeros((3, 1), np.float32), 0)
        g = DGLGraph.from_sample(s)
        g.ndata["h"] = Tensor(np.array([[2.0], [4.0], [0.0]], np.float32))
        g.update_all(fn.copy_u("h", "m"), fn.mean("m", "out"))
        np.testing.assert_allclose(g.ndata["out"].data, [[0.0], [0.0], [3.0]])

    def test_u_mul_e_sum(self):
        g = DGLGraph.from_sample(sample(3))
        g.ndata["h"] = Tensor(np.ones((3, 2), np.float32))
        g.edata["w"] = Tensor(np.array([2.0, 3.0, 4.0], np.float32))
        g.update_all(fn.u_mul_e("h", "w", "m"), fn.sum("m", "out"))
        # edges: 0->1 (w=2), 1->2 (w=3), 2->0 (w=4)
        np.testing.assert_allclose(g.ndata["out"].data, [[4, 4], [2, 2], [3, 3]])

    def test_mismatched_fields_rejected(self):
        g = DGLGraph.from_sample(sample(3))
        g.ndata["h"] = Tensor(np.ones((3, 1), np.float32))
        with pytest.raises(ValueError):
            g.update_all(fn.copy_u("h", "m"), fn.sum("m2", "out"))

    def test_charges_scheduler_overhead(self, fresh_device):
        g = DGLGraph.from_sample(sample(3))
        g.ndata["h"] = Tensor(np.ones((3, 1), np.float32))
        before = fresh_device.clock.elapsed
        g.update_all(fn.copy_u("h", "m"), fn.sum("m", "out"))
        overhead = fresh_device.host_costs.dgl_update_all_overhead
        assert fresh_device.clock.elapsed - before >= overhead


class TestApplyEdges:
    def test_u_add_v(self):
        g = DGLGraph.from_sample(sample(3))
        g.ndata["a"] = Tensor(np.array([[1.0], [2.0], [3.0]], np.float32))
        g.ndata["b"] = Tensor(np.array([[10.0], [20.0], [30.0]], np.float32))
        g.apply_edges(fn.u_add_v("a", "b", "e"))
        # edge order: 0->1, 1->2, 2->0
        np.testing.assert_allclose(g.edata["e"].data, [[21.0], [32.0], [13.0]])

    def test_u_dot_v(self):
        g = DGLGraph.from_sample(sample(3))
        g.ndata["a"] = Tensor(np.eye(3, dtype=np.float32))
        g.ndata["b"] = Tensor(np.eye(3, dtype=np.float32))
        g.apply_edges(EdgeFunc("u_dot_v", "a", "b", "e"))
        np.testing.assert_allclose(g.edata["e"].data, [0.0, 0.0, 0.0])

    def test_unknown_op(self):
        g = DGLGraph.from_sample(sample(3))
        g.ndata["a"] = Tensor(np.ones((3, 1), np.float32))
        with pytest.raises(ValueError):
            g.apply_edges(EdgeFunc("u_pow_v", "a", "a", "e"))
        with pytest.raises(ValueError):
            g.apply_edges(EdgeFunc("bogus", "a", "a", "e"))

    @pytest.mark.parametrize("lhs", EDGE_TARGETS)
    @pytest.mark.parametrize("rhs", EDGE_TARGETS)
    def test_each_target_reads_its_frame(self, lhs, rhs, fresh_device):
        # u / v read a node field at the edge's source / destination, e reads
        # the edge field itself; "sub" keeps the operand order visible.
        g = DGLGraph.from_sample(sample(3))  # edges 0->1, 1->2, 2->0
        src, dst = np.array([0, 1, 2]), np.array([1, 2, 0])
        frames = {
            "a": (np.array([[1.0], [2.0], [3.0]], np.float32),
                  np.array([[10.0], [20.0], [30.0]], np.float32)),
            "b": (np.array([[100.0], [200.0], [300.0]], np.float32),
                  np.array([[1000.0], [2000.0], [3000.0]], np.float32)),
        }
        for field, (nodes, edges) in frames.items():
            g.ndata[field] = Tensor(nodes)
            g.edata[field] = Tensor(edges)

        def operand(target, field):
            nodes, edges = frames[field]
            return {"u": nodes[src], "v": nodes[dst], "e": edges}[target]

        g.csr  # the one-off COO -> CSR build is not part of the edge op
        fresh_device.profiler.enabled = True
        g.apply_edges(EdgeFunc(f"{lhs}_sub_{rhs}", "a", "b", "out"))
        np.testing.assert_array_equal(
            g.edata["out"].data, operand(lhs, "a") - operand(rhs, "b")
        )
        assert [r.name for r in fresh_device.profiler.records] == ["gsddmm_sub"]

    @pytest.mark.parametrize("binop", EDGE_BINARY_OPS)
    def test_each_binop_lowers_to_one_gsddmm(self, binop, fresh_device):
        g = DGLGraph.from_sample(sample(3))  # edges 0->1, 1->2, 2->0
        a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], np.float32)
        b = np.array([[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]], np.float32)
        g.ndata["a"], g.ndata["b"] = Tensor(a), Tensor(b)
        u, v = a[[0, 1, 2]], b[[1, 2, 0]]
        expected = {
            "add": u + v, "sub": u - v, "mul": u * v, "div": u / v,
            "dot": (u * v).sum(axis=-1),
        }[binop]

        g.csr  # the one-off COO -> CSR build is not part of the edge op
        fresh_device.profiler.enabled = True
        g.apply_edges(EdgeFunc(f"u_{binop}_v", "a", "b", "e"))
        np.testing.assert_allclose(g.edata["e"].data, expected, rtol=1e-6)
        assert [r.name for r in fresh_device.profiler.records] == [f"gsddmm_{binop}"]


class TestFusedKernels:
    def test_u_add_v_gradients(self, rng):
        from repro.tensor import CSRGraph

        src = np.array([0, 1, 1])
        dst = np.array([1, 0, 2])
        g = CSRGraph.from_edge_index(src, dst, 3, 3)
        a = Tensor(rng.normal(size=(3, 2)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)).astype(np.float32), requires_grad=True)
        gsddmm(g, "add", a, b).sum().backward()
        np.testing.assert_allclose(a.grad, np.array([[1, 1], [2, 2], [0, 0]], np.float32))
        np.testing.assert_allclose(b.grad, np.array([[1, 1], [1, 1], [1, 1]], np.float32))

    def test_fused_softmax_matches_pygx_composition(self, rng):
        from repro.pygx import edge_softmax as pygx_softmax
        from repro.tensor import CSRGraph

        src = rng.integers(0, 5, size=12)
        dst = rng.integers(0, 5, size=12)
        g = CSRGraph.from_edge_index(src, dst, 5, 5)
        logits = rng.normal(size=(12, 3)).astype(np.float32)
        fused = edge_softmax(g, Tensor(logits)).data
        composed = pygx_softmax(Tensor(logits), dst, 5).data
        np.testing.assert_allclose(fused, composed, atol=1e-5)

    def test_fused_softmax_gradient_near_zero_for_sum(self, rng):
        from repro.tensor import CSRGraph

        dst = np.array([0, 0, 1, 1])
        g = CSRGraph.from_edge_index(np.array([0, 1, 2, 3]), dst, 4, 2)
        logits = Tensor(rng.normal(size=(4,)).astype(np.float32), requires_grad=True)
        edge_softmax(g, logits).sum().backward()
        np.testing.assert_allclose(logits.grad, np.zeros(4), atol=1e-5)

    def test_fused_softmax_fewer_launches_than_composed(self, fresh_device, rng):
        from repro.pygx import edge_softmax as pygx_softmax
        from repro.tensor import CSRGraph

        dst = np.array([0, 0, 1])
        g = CSRGraph.from_edge_index(np.array([0, 1, 2]), dst, 3, 2)
        logits = Tensor(rng.normal(size=(3,)).astype(np.float32))
        prof = fresh_device.profiler
        prof.enabled = True
        prof.clear()
        edge_softmax(g, logits)
        fused_launches = len(prof.records)
        prof.clear()
        pygx_softmax(logits, dst, 2)
        composed_launches = len(prof.records)
        assert fused_launches < composed_launches


class TestBatching:
    def graphs(self, n=5):
        return [sample(3 + i, label=i % 2, seed=i) for i in range(n)]

    def test_batched_structure(self):
        g = batch(self.graphs(3))
        assert g.batch_size() == 3
        assert g.num_nodes() == 3 + 4 + 5
        np.testing.assert_array_equal(g.batch_num_nodes(), [3, 4, 5])
        np.testing.assert_array_equal(g.node_offsets(), [0, 3, 7, 12])

    def test_features_in_frame(self):
        gs = self.graphs(2)
        g = batch(gs)
        np.testing.assert_array_equal(g.ndata["feat"].data, np.concatenate([s.x for s in gs]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            batch([])

    def test_costs_more_than_pygx_batching(self, fresh_device):
        from repro.pygx import Batch, Data

        gs = self.graphs(20)
        before = fresh_device.clock.elapsed
        Batch.from_data_list([Data.from_sample(g) for g in gs])
        pyg_cost = fresh_device.clock.elapsed - before
        before = fresh_device.clock.elapsed
        batch(gs)
        dgl_cost = fresh_device.clock.elapsed - before
        assert dgl_cost > pyg_cost


class TestReadout:
    def make_batched(self):
        g = batch([sample(2, seed=1), sample(3, seed=2)])
        g.ndata["h"] = Tensor(
            np.array([[1.0], [3.0], [3.0], [6.0], [0.0]], np.float32)
        )
        return g

    def test_mean_nodes(self):
        out = mean_nodes(self.make_batched(), "h")
        np.testing.assert_allclose(out.data, [[2.0], [3.0]])


class TestGraphDataLoader:
    def test_yields_graph_and_labels(self):
        gs = [sample(3, label=i, seed=i) for i in range(4)]
        loader = GraphDataLoader(gs, batch_size=2)
        batches = list(loader)
        assert len(batches) == 2
        g, labels = batches[0]
        assert isinstance(g, DGLGraph)
        np.testing.assert_array_equal(labels, [0, 1])

    def test_loading_phase(self, fresh_device):
        gs = [sample(3, seed=i) for i in range(4)]
        list(GraphDataLoader(gs, batch_size=2))
        assert fresh_device.clock.phase_elapsed["data_loading"] > 0

    def test_int_seed_accepted_and_reproducible(self):
        gs = [sample(3, label=i, seed=i) for i in range(8)]
        first = GraphDataLoader(gs, batch_size=8, shuffle=True, rng=11)
        second = GraphDataLoader(gs, batch_size=8, shuffle=True, rng=11)
        (_, labels_a), (_, labels_b) = next(iter(first)), next(iter(second))
        np.testing.assert_array_equal(labels_a, labels_b)

    def test_frame_set_charges_host_time(self, fresh_device):
        g = DGLGraph.from_sample(sample(3))
        before = fresh_device.clock.elapsed
        g.ndata["h"] = Tensor(np.ones((3, 1), np.float32))
        assert fresh_device.clock.elapsed > before
