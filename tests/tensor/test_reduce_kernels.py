"""Differential oracle for the sum-reduction kernels and the ops built on them.

``scatter_add_rows`` must equal ``np.add.at`` bit for bit (same float32
accumulation order); ``segment_add_rows`` is checked against a float64 dense
one-hot matmul with a bound sized from float32 epsilon.  The degenerate
graphs are the ones that break sparse kernels in practice.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import CSRGraph, Tensor, gradcheck, gsddmm, gspmm, index_rows, ops, scatter_sum
from repro.tensor._reduce import scatter_add_rows, segment_add_rows

#: ``name -> (src, dst, num_nodes)``.
DEGENERATE_GRAPHS = {
    "no_edges": ([], [], 4),
    "no_nodes": ([], [], 0),
    "isolated_first": ([1, 2, 3], [2, 3, 1], 4),
    "isolated_middle": ([0, 3, 3], [3, 0, 0], 4),
    "isolated_last": ([0, 1, 2], [1, 2, 0], 4),
    "duplicate_edges": ([0, 0, 0, 1, 1], [2, 2, 2, 0, 0], 3),
    "self_loops": ([0, 1, 2, 2], [0, 1, 2, 2], 3),
    "single_hub": ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9], [0] * 10, 10),
}
TRAILING = [(), (3,), (2, 3), (2, 1), (0,)]


def _graph_arrays(name):
    src, dst, n = DEGENERATE_GRAPHS[name]
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), n


def _indptr(sorted_index, num_segments):
    indptr = np.zeros(num_segments + 1, dtype=np.int64)
    np.cumsum(np.bincount(sorted_index, minlength=num_segments), out=indptr[1:])
    return indptr


def _add_at(values, index, dim_size):
    ref = np.zeros((dim_size,) + values.shape[1:], dtype=np.float32)
    np.add.at(ref, index, values.astype(np.float32))
    return ref


def _assert_close_to_dense(out, values, index, dim_size):
    """``out`` against a float64 one-hot matmul, within n * eps32 * sum|v|."""
    onehot = np.zeros((dim_size, len(values)), dtype=np.float64)
    onehot[index, np.arange(len(values))] = 1.0
    width = int(np.prod(values.shape[1:]))  # reshape(n, -1) rejects n == 0
    flat = values.astype(np.float32).astype(np.float64).reshape(len(values), width)
    ref = (onehot @ flat).reshape(out.shape)
    bound = 1e-5 * (onehot @ np.abs(flat)).reshape(out.shape)
    assert out.dtype == np.float32 and out.shape == ref.shape
    assert np.all(np.abs(out - ref) <= bound)


@st.composite
def reduction_cases(draw):
    """Random ``(values, index, dim_size)`` incl. odd dtypes and layouts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim_size = draw(st.integers(1, 6))
    n = draw(st.integers(0, 40))
    trailing = draw(st.sampled_from(TRAILING))
    values = rng.standard_normal((n,) + trailing)
    if draw(st.booleans()):
        values = values.astype(np.float32)
    if trailing and draw(st.booleans()):
        values = np.repeat(values, 2, axis=-1)[..., ::2]  # non-contiguous view
    index = rng.integers(0, dim_size, n).astype(draw(st.sampled_from([np.int32, np.int64])))
    return values, index, dim_size


class TestScatterAddRows:
    @settings(max_examples=80, deadline=None)
    @given(case=reduction_cases())
    def test_bitwise_equal_to_add_at(self, case):
        values, index, dim_size = case
        out = scatter_add_rows(values, index, dim_size)
        assert out.dtype == np.float32
        assert np.array_equal(out, _add_at(values, index, dim_size))

    @pytest.mark.parametrize("trailing", TRAILING)
    @pytest.mark.parametrize("name", DEGENERATE_GRAPHS)
    def test_degenerate_graphs(self, name, trailing):
        _, dst, n = _graph_arrays(name)
        values = np.random.default_rng(0).standard_normal((len(dst),) + trailing)
        out = scatter_add_rows(values, dst, n)
        assert out.shape == (n,) + trailing
        assert np.array_equal(out, _add_at(values, dst, n))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_index_raises(self, bad):
        with pytest.raises(IndexError, match="out of range for 3 rows"):
            scatter_add_rows(np.ones((2, 2), np.float32), np.array([0, bad]), 3)

    def test_wrong_length_index_raises(self):
        with pytest.raises(ValueError, match="length 2"):
            scatter_add_rows(np.ones((2, 2), np.float32), np.array([0, 1, 1]), 3)


class TestSegmentAddRows:
    @settings(max_examples=80, deadline=None)
    @given(case=reduction_cases())
    def test_close_to_dense_one_hot(self, case):
        values, index, dim_size = case
        index = np.sort(index)
        out = segment_add_rows(values, _indptr(index, dim_size))
        _assert_close_to_dense(out, values, index, dim_size)

    def test_long_segments_stay_within_bound(self):
        # Segments of >= 8 rows are where np.add.reduceat summed pairwise.
        rng = np.random.default_rng(1)
        values = rng.standard_normal((4000, 8, 4)).astype(np.float32)
        index = np.sort(rng.integers(0, 20, 4000))
        out = segment_add_rows(values, _indptr(index, 20))
        _assert_close_to_dense(out, values, index, 20)
        # Sequential float32 accumulation, the same order as the scatter kernel.
        assert np.array_equal(out, scatter_add_rows(values, index, 20))

    @pytest.mark.parametrize("trailing", TRAILING)
    @pytest.mark.parametrize("name", DEGENERATE_GRAPHS)
    def test_degenerate_graphs(self, name, trailing):
        _, dst, n = _graph_arrays(name)
        dst = np.sort(dst)
        values = np.random.default_rng(0).standard_normal((len(dst),) + trailing)
        out = segment_add_rows(values, _indptr(dst, n))
        assert out.shape == (n,) + trailing
        _assert_close_to_dense(out, values, dst, n)

    @pytest.mark.parametrize(
        "indptr",
        [[0, 2, 1, 3], [0, 1, 2], [1, 2, 3], [0, 1, 4], [], [[0, 3]]],
        ids=["non_monotone", "short", "nonzero_start", "past_end", "empty", "two_d"],
    )
    def test_malformed_indptr_raises(self, indptr):
        with pytest.raises(ValueError, match="must rise monotonically from 0 to 3"):
            segment_add_rows(np.ones((3, 2), np.float32), np.array(indptr, dtype=np.int64))


class TestOpsOnDegenerateGraphs:
    """Autograd ops over the kernels: gradients and cross-pack agreement."""

    @pytest.fixture(params=list(DEGENERATE_GRAPHS))
    def graph(self, request):
        src, dst, n = _graph_arrays(request.param)
        return src, dst, n, CSRGraph.from_edge_index(src, dst, n, n)

    def test_gradcheck_scatter_sum(self, graph):
        _, dst, n, _ = graph
        rng = np.random.default_rng(2)
        weight = Tensor(rng.standard_normal((n, 2, 3)).astype(np.float32))
        fn = lambda m: ops.mul(scatter_sum(m, dst, n), weight)
        assert gradcheck(fn, [rng.standard_normal((len(dst), 2, 3))])

    def test_gradcheck_index_rows(self, graph):
        src, _, n, _ = graph
        rng = np.random.default_rng(3)
        weight = Tensor(rng.standard_normal((len(src), 3)).astype(np.float32))
        fn = lambda x: ops.mul(index_rows(x, src), weight)
        assert gradcheck(fn, [rng.standard_normal((n, 3))])

    def test_gradcheck_gspmm_per_head_weights(self, graph):
        src, _, n, csr = graph
        rng = np.random.default_rng(4)
        out_weight = Tensor(rng.standard_normal((n, 2, 3)).astype(np.float32))
        fn = lambda x, w: ops.mul(gspmm(csr, x, w), out_weight)
        inputs = [rng.standard_normal((n, 2, 3)), rng.standard_normal((len(src), 2, 1))]
        assert gradcheck(fn, inputs)

    @pytest.mark.parametrize("op", ["mul", "dot"])
    def test_gradcheck_gsddmm_u_operand(self, graph, op):
        src, _, n, csr = graph
        rng = np.random.default_rng(5)
        shape = (len(src), 2) if op == "dot" else (len(src), 2, 3)
        out_weight = Tensor(rng.standard_normal(shape).astype(np.float32))
        fn = lambda u, v: ops.mul(gsddmm(csr, op, u, v), out_weight)
        assert gradcheck(fn, [rng.standard_normal((n, 2, 3)), rng.standard_normal((n, 2, 3))])

    def test_pygx_scatter_path_agrees_with_dglx_gspmm(self, graph):
        src, dst, n, csr = graph
        data = np.random.default_rng(6).standard_normal((n, 2, 3)).astype(np.float32)
        x_pyg = Tensor(data.copy(), requires_grad=True)
        x_dgl = Tensor(data.copy(), requires_grad=True)
        out_pyg = scatter_sum(index_rows(x_pyg, src), dst, n)
        out_dgl = gspmm(csr, x_dgl)
        np.testing.assert_allclose(out_pyg.data, out_dgl.data, rtol=1e-5, atol=1e-6)
        seed = np.random.default_rng(7).standard_normal(out_pyg.shape).astype(np.float32)
        out_pyg.backward(seed)
        out_dgl.backward(seed)
        np.testing.assert_allclose(x_pyg.grad, x_dgl.grad, rtol=1e-5, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), e=st.integers(0, 30))
def test_scatter_of_gather_agrees_with_gspmm(seed, n, e):
    """pygx ``scatter_sum(index_rows(x, src), dst)`` == dglx ``gspmm(csr, x)``."""
    rng = np.random.default_rng(seed)
    src, dst = rng.integers(0, n, e), rng.integers(0, n, e)
    x = Tensor(rng.standard_normal((n, 4)).astype(np.float32))
    pyg = scatter_sum(index_rows(x, src), dst, n)
    dgl = gspmm(CSRGraph.from_edge_index(src, dst, n, n), x)
    np.testing.assert_allclose(pyg.data, dgl.data, rtol=1e-5, atol=1e-5)
