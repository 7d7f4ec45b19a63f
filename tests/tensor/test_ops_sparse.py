"""GSpMM / GSDDMM fused kernels vs dense references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import CSRGraph, Tensor, edge_softmax, gsddmm_dot, gspmm


def random_graph(rng, n_src=6, n_dst=5, n_edges=12):
    src = rng.integers(0, n_src, size=n_edges)
    dst = rng.integers(0, n_dst, size=n_edges)
    return src, dst, CSRGraph.from_edge_index(src, dst, n_src, n_dst)


def dense_adjacency(src, dst, n_src, n_dst, weights=None):
    a = np.zeros((n_dst, n_src), np.float32)
    w = np.ones(len(src), np.float32) if weights is None else weights
    for s, d, wi in zip(src, dst, w):
        a[d, s] += wi
    return a


class TestCSRGraph:
    def test_structure(self, rng):
        src = np.array([0, 1, 2, 0])
        dst = np.array([1, 1, 0, 2])
        g = CSRGraph.from_edge_index(src, dst, 3, 3)
        assert g.num_edges == 4
        np.testing.assert_array_equal(g.in_degrees(), [1, 2, 1])

    def test_edge_ids_invert_sorting(self, rng):
        src, dst, g = random_graph(rng)
        # edge_ids maps CSR slots back to original edge order
        np.testing.assert_array_equal(np.sort(g.edge_ids), np.arange(g.num_edges))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edge_index(np.array([5]), np.array([0]), 3, 3)
        with pytest.raises(ValueError):
            CSRGraph.from_edge_index(np.array([0]), np.array([7]), 3, 3)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edge_index(np.array([0, 1]), np.array([0]), 3, 3)


class TestGSpMM:
    def test_sum_matches_dense(self, rng):
        src, dst, g = random_graph(rng)
        x = rng.normal(size=(6, 4)).astype(np.float32)
        out = gspmm(g, Tensor(x)).data
        np.testing.assert_allclose(out, dense_adjacency(src, dst, 6, 5) @ x, atol=1e-4)

    def test_mean_matches_dense(self, rng):
        src, dst, g = random_graph(rng)
        x = rng.normal(size=(6, 3)).astype(np.float32)
        deg = np.maximum(g.in_degrees(), 1).astype(np.float32)
        expected = (dense_adjacency(src, dst, 6, 5) @ x) / deg[:, None]
        np.testing.assert_allclose(gspmm(g, Tensor(x), reduce="mean").data, expected, atol=1e-4)

    def test_scalar_edge_weights(self, rng):
        src, dst, g = random_graph(rng)
        x = rng.normal(size=(6, 3)).astype(np.float32)
        w = rng.normal(size=len(src)).astype(np.float32)
        expected = dense_adjacency(src, dst, 6, 5, w) @ x
        out = gspmm(g, Tensor(x), Tensor(w)).data
        np.testing.assert_allclose(out, expected, atol=1e-4)

    def test_column_edge_weights_same_as_flat(self, rng):
        src, dst, g = random_graph(rng)
        x = rng.normal(size=(6, 3)).astype(np.float32)
        w = rng.normal(size=len(src)).astype(np.float32)
        flat = gspmm(g, Tensor(x), Tensor(w)).data
        col = gspmm(g, Tensor(x), Tensor(w[:, None])).data
        np.testing.assert_allclose(flat, col, atol=1e-5)

    def test_multihead_edge_weights(self, rng):
        """(E, H, 1) weights against (N, H, D) features — the GAT pattern."""
        src, dst, g = random_graph(rng)
        h, d = 2, 3
        x = rng.normal(size=(6, h, d)).astype(np.float32)
        w = rng.normal(size=(len(src), h, 1)).astype(np.float32)
        out = gspmm(g, Tensor(x), Tensor(w)).data
        expected = np.zeros((5, h, d), np.float32)
        for e, (s, dd_) in enumerate(zip(src, dst)):
            expected[dd_] += w[e] * x[s]
        np.testing.assert_allclose(out, expected, atol=1e-4)

    def test_grad_x_matches_dense(self, rng):
        src, dst, g = random_graph(rng)
        x = Tensor(rng.normal(size=(6, 3)).astype(np.float32), requires_grad=True)
        gspmm(g, x).sum().backward()
        expected = dense_adjacency(src, dst, 6, 5).T @ np.ones((5, 3), np.float32)
        np.testing.assert_allclose(x.grad, expected, atol=1e-4)

    def test_grad_weights(self, rng):
        src, dst, g = random_graph(rng)
        x = rng.normal(size=(6, 3)).astype(np.float32)
        w = Tensor(rng.normal(size=len(src)).astype(np.float32), requires_grad=True)
        gspmm(g, Tensor(x), w).sum().backward()
        # dL/dw_e = sum_f x[src(e), f]
        np.testing.assert_allclose(w.grad, x[src].sum(axis=1), atol=1e-4)

    def test_rejects_bad_reduce(self, rng):
        _, _, g = random_graph(rng)
        with pytest.raises(ValueError):
            gspmm(g, Tensor(np.zeros((6, 2))), reduce="prod")

    def test_max_reduce_matches_loop(self, rng):
        src, dst, g = random_graph(rng)
        x = rng.normal(size=(6, 3)).astype(np.float32)
        out = gspmm(g, Tensor(x), reduce="max").data
        expected = np.zeros((5, 3), np.float32)
        for d in range(5):
            sources = src[dst == d]
            if len(sources):
                expected[d] = x[sources].max(axis=0)
        np.testing.assert_allclose(out, expected, atol=1e-5)

    def test_max_reduce_gradient_routes_to_winners(self, rng):
        g = CSRGraph.from_edge_index(np.array([0, 1]), np.array([2, 2]), 3, 3)
        x = Tensor(np.array([[1.0], [5.0], [0.0]], np.float32), requires_grad=True)
        gspmm(g, x, reduce="max").sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0], [1.0], [0.0]])

    def test_rejects_row_mismatch(self, rng):
        _, _, g = random_graph(rng)
        with pytest.raises(ValueError):
            gspmm(g, Tensor(np.zeros((3, 2))))

    @pytest.mark.parametrize("reduce", ["sum", "mean", "max"])
    @pytest.mark.parametrize(
        "x_rows, w_rows, sizes",
        [(5, None, "x has 5 rows, graph expects 3"), (3, 4, "edge_weight has 4 rows, graph has 3 edges")],
    )
    def test_every_reduce_rejects_a_row_mismatch_naming_both_sizes(self, reduce, x_rows, w_rows, sizes):
        g = CSRGraph.from_edge_index(np.array([0, 1, 2]), np.array([1, 2, 0]), 3, 3)
        w = None if w_rows is None else Tensor(np.ones(w_rows, np.float32))
        with pytest.raises(ValueError, match=sizes):
            gspmm(g, Tensor(np.ones((x_rows, 2), np.float32)), w, reduce=reduce)

    def test_edge_softmax_rejects_a_logit_count_naming_both_sizes(self):
        g = CSRGraph.from_edge_index(np.array([0, 1, 2]), np.array([1, 2, 0]), 3, 3)
        with pytest.raises(ValueError, match="logits have 5 rows, graph has 3 edges"):
            edge_softmax(g, Tensor(np.ones((5, 2), np.float32)))

    def test_is_single_forward_kernel(self, rng, fresh_device):
        _, _, g = random_graph(rng)
        x = Tensor(np.ones((6, 2), np.float32))
        fresh_device.profiler.enabled = True
        fresh_device.profiler.clear()
        gspmm(g, x)
        names = [r.name for r in fresh_device.profiler.records]
        assert names == ["gspmm"]


class TestGSDDMM:
    def test_dot_matches_loop(self, rng):
        src, dst, g = random_graph(rng)
        a = rng.normal(size=(6, 4)).astype(np.float32)
        b = rng.normal(size=(5, 4)).astype(np.float32)
        out = gsddmm_dot(g, Tensor(a), Tensor(b)).data
        expected = np.array([a[s] @ b[d] for s, d in zip(src, dst)], np.float32)
        np.testing.assert_allclose(out, expected, atol=1e-4)

    def test_dot_multihead_shape(self, rng):
        src, dst, g = random_graph(rng)
        a = rng.normal(size=(6, 2, 4)).astype(np.float32)
        b = rng.normal(size=(5, 2, 4)).astype(np.float32)
        out = gsddmm_dot(g, Tensor(a), Tensor(b))
        assert out.shape == (g.num_edges, 2)

    def test_dot_gradients(self, rng):
        src, dst, g = random_graph(rng)
        a = Tensor(rng.normal(size=(6, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 3)).astype(np.float32), requires_grad=True)
        gsddmm_dot(g, a, b).sum().backward()
        ga = np.zeros((6, 3), np.float32)
        gb = np.zeros((5, 3), np.float32)
        for s, d in zip(src, dst):
            ga[s] += b.data[d]
            gb[d] += a.data[s]
        np.testing.assert_allclose(a.grad, ga, atol=1e-4)
        np.testing.assert_allclose(b.grad, gb, atol=1e-4)

    def test_rejects_row_mismatch(self, rng):
        _, _, g = random_graph(rng)
        with pytest.raises(ValueError):
            gsddmm_dot(g, Tensor(np.zeros((2, 3))), Tensor(np.zeros((5, 3))))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 10),
    n_edges=st.integers(1, 30),
    width=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
def test_gspmm_equals_dense_spmv_property(n, n_edges, width, seed):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=n_edges)
    dst = rng.integers(0, n, size=n_edges)
    g = CSRGraph.from_edge_index(src, dst, n, n)
    x = rng.normal(size=(n, width)).astype(np.float32)
    out = gspmm(g, Tensor(x)).data
    expected = dense_adjacency(src, dst, n, n) @ x
    np.testing.assert_allclose(out, expected, atol=1e-3)
