"""Differential oracle for the sum-reduction kernels and the ops built on them.

``scatter_add_rows`` must equal ``np.add.at`` bit for bit (same float32
accumulation order); ``segment_add_rows`` is checked against a float64 dense
one-hot matmul with a bound sized from float32 epsilon; ``csr_product`` is
checked against both a dense product and a Python loop that pins each
direction's accumulation order bit for bit.  The degenerate graphs are the
ones that break sparse kernels in practice.
"""

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import (
    CSRGraph,
    Tensor,
    gradcheck,
    gsddmm,
    gspmm,
    index_rows,
    ops,
    scatter_max,
    scatter_sum,
)
from repro.tensor import _reduce
from repro.tensor._reduce import csr_product, scatter_add_rows, segment_add_rows

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

    def test_two_d_index_raises(self):
        with pytest.raises(ValueError, match="1-D with length 2"):
            scatter_add_rows(np.ones((2, 2), np.float32), np.array([[0], [1]]), 3)

    @pytest.mark.parametrize(
        "index", [np.array([0.0, 1.0]), np.array([True, False]), np.array(["0", "1"])],
        ids=["float", "bool", "str"],
    )
    def test_non_integer_index_raises(self, index):
        # An int64 cast would truncate 1.5 to row 1 and read True as row 1.
        with pytest.raises(TypeError, match="integer array"):
            scatter_add_rows(np.ones((2, 2), np.float32), index, 3)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
    def test_any_integer_dtype_is_accepted(self, dtype):
        values = np.arange(6, dtype=np.float32).reshape(3, 2)
        out = scatter_add_rows(values, np.array([2, 0, 2], dtype=dtype), 3)
        assert np.array_equal(out, [[2, 3], [0, 0], [4, 6]])

    def test_minus_one_does_not_wrap_to_the_last_row(self):
        with pytest.raises(IndexError, match="out of range for 3 rows"):
            scatter_add_rows(np.ones((1, 2), np.float32), np.array([-1]), 3)
        with pytest.raises(IndexError, match="out of range for 3 rows"):
            scatter_add_rows(np.ones((1, 2), np.float32), np.array([2**64 - 1], np.uint64), 3)

    def test_non_contiguous_index(self):
        index = np.array([2, 9, 0, 9, 2, 9])[::2]
        out = scatter_add_rows(np.ones((3, 1), np.float32), index, 3)
        assert np.array_equal(out, [[1], [0], [2]])


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

    def test_float_indptr_raises(self):
        with pytest.raises(TypeError, match="integer array"):
            segment_add_rows(np.ones((3, 2), np.float32), np.array([0.0, 1.5, 3.0]))

    def test_int32_indptr_is_accepted(self):
        out = segment_add_rows(np.ones((3, 2), np.float32), np.array([0, 1, 1, 3], np.int32))
        assert np.array_equal(out, [[1, 1], [0, 0], [2, 2]])


def _loop_product(indptr, indices, data, x, num_rows, transpose):
    """``csr_product``'s contract as a Python loop: float32 products, storage order."""
    x = np.asarray(x, dtype=np.float32)
    out = np.zeros((num_rows,) + x.shape[1:], dtype=np.float32)
    for row in range(len(indptr) - 1):
        for k in range(indptr[row], indptr[row + 1]):
            if transpose:
                out[indices[k]] += data[k] * x[row]
            else:
                out[row] += data[k] * x[indices[k]]
    return out


@st.composite
def csr_cases(draw):
    """Random ``(indptr, indices, data, num_rows, num_cols, rng)`` incl. empty rows/graphs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_rows, num_cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    nnz = draw(st.integers(0, 30)) if num_rows else 0
    rows = np.sort(rng.integers(0, max(num_rows, 1), nnz))
    index_dtype = draw(st.sampled_from([np.int32, np.int64]))
    indices = rng.integers(0, num_cols, nnz).astype(index_dtype)  # duplicates welcome
    data = rng.standard_normal(nnz).astype(np.float32)
    return _indptr(rows, num_rows).astype(index_dtype), indices, data, num_rows, num_cols, rng


def _operand(rng, rows, trailing, draw_noncontiguous):
    x = rng.standard_normal((rows,) + trailing).astype(np.float32)
    if trailing and draw_noncontiguous:
        x = np.repeat(x, 2, axis=-1)[..., ::2]
    return x


class TestCsrProduct:
    @settings(max_examples=80, deadline=None)
    @given(case=csr_cases(), trailing=st.sampled_from(TRAILING), strided=st.booleans())
    def test_forward_matches_loop_bitwise_and_dense(self, case, trailing, strided):
        indptr, indices, data, num_rows, num_cols, rng = case
        x = _operand(rng, num_cols, trailing, strided)
        out = csr_product(indptr, indices, data, x, num_rows)
        assert out.dtype == np.float32 and out.flags.c_contiguous
        assert np.array_equal(out, _loop_product(indptr, indices, data, x, num_rows, False))
        dense = np.zeros((num_rows, num_cols), dtype=np.float64)
        np.add.at(dense, (np.repeat(np.arange(num_rows), np.diff(indptr)), indices), data)
        ref = np.tensordot(dense, x.astype(np.float64), axes=1)
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-4)

    @settings(max_examples=80, deadline=None)
    @given(case=csr_cases(), trailing=st.sampled_from(TRAILING), strided=st.booleans())
    def test_transpose_matches_loop_bitwise_and_dense(self, case, trailing, strided):
        indptr, indices, data, num_rows, num_cols, rng = case
        x = _operand(rng, num_rows, trailing, strided)
        out = csr_product(indptr, indices, data, x, num_cols, transpose=True)
        assert out.dtype == np.float32 and out.flags.c_contiguous
        assert np.array_equal(out, _loop_product(indptr, indices, data, x, num_cols, True))
        dense = np.zeros((num_rows, num_cols), dtype=np.float64)
        np.add.at(dense, (np.repeat(np.arange(num_rows), np.diff(indptr)), indices), data)
        ref = np.tensordot(dense.T, x.astype(np.float64), axes=1)
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("name", DEGENERATE_GRAPHS)
    def test_unweighted_product_is_the_selection_kernels(self, name):
        src, dst, n = _graph_arrays(name)
        csr = CSRGraph.from_edge_index(src, dst, n, n)
        x = np.random.default_rng(8).standard_normal((n, 2, 3)).astype(np.float32)
        forward = csr_product(csr.indptr, csr.indices, None, x, n)
        assert np.array_equal(forward, segment_add_rows(x[csr.indices], csr.indptr))
        backward = csr_product(csr.indptr, csr.indices, None, x, n, transpose=True)
        assert np.array_equal(backward, scatter_add_rows(x[csr.rows], csr.indices, n))

    def test_row_count_mismatch_raises(self):
        indptr, indices = np.array([0, 1, 2]), np.array([0, 2])
        with pytest.raises(ValueError, match="stores 2 rows"):
            csr_product(indptr, indices, None, np.ones((3, 1), np.float32), 3)
        with pytest.raises(ValueError, match="stores 2 rows"):
            csr_product(indptr, indices, None, np.ones((3, 1), np.float32), 3, transpose=True)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_column_out_of_range_raises(self, transpose):
        x = np.ones((2, 1), np.float32)
        with pytest.raises(IndexError, match="out of range for 2 rows"):
            csr_product(np.array([0, 1, 2]), np.array([0, 2]), None, x, 2, transpose=transpose)

    def test_bad_offsets_and_data_raise(self):
        x = np.ones((2, 1), np.float32)
        with pytest.raises(ValueError, match="must rise monotonically from 0 to 2"):
            csr_product(np.array([0, 2, 1]), np.array([0, 1]), None, x, 2)
        with pytest.raises(ValueError, match="data must be 1-D with length 2"):
            csr_product(np.array([0, 1, 2]), np.array([0, 1]), np.ones(3, np.float32), x, 2)
        with pytest.raises(TypeError, match="integer array"):
            csr_product(np.array([0, 1, 2]), np.array([0.0, 1.0]), None, x, 2)

    def test_an_out_buffer_is_filled_and_checked(self):
        indptr, indices, x = np.array([0, 1, 3]), np.array([1, 0, 1]), np.arange(4, dtype=np.float32).reshape(2, 2)
        base = np.zeros((2, 1, 2), np.float32)
        out = csr_product(indptr, indices, None, x, 2, out=base.reshape(2, 2))
        assert out.base is base and base.tobytes() == csr_product(indptr, indices, None, x, 2).tobytes()
        for wrong in (np.zeros((2, 3), np.float32), np.zeros((2, 2), np.float64)):
            with pytest.raises(ValueError, match="out must be float32"):
                csr_product(indptr, indices, None, x, 2, out=wrong)


def test_sparsetools_contract():
    """Both C entry points, called the way ``_reduce`` calls them, on a 3x3 example.

    ``scipy.sparse._sparsetools`` is private: this is the test that says so
    when a scipy release moves it.
    """
    dense = np.array([[1, 0, 2], [0, 0, 3], [4, 5, 0]], dtype=np.float32)
    indptr = np.array([0, 2, 3, 5], dtype=np.int64)
    indices = np.array([0, 2, 2, 0, 1], dtype=np.int64)
    data = np.array([1, 2, 3, 4, 5], dtype=np.float32)
    x = np.arange(6, dtype=np.float32).reshape(3, 2)
    hint = (
        f"scipy {scipy.__version__}: the csr_matvecs/csc_matvecs call in "
        "src/repro/tensor/_reduce.py (_matvecs) no longer matches "
        "scipy.sparse._sparsetools; pyproject.toml declares scipy>=1.8"
    )
    for kernel, expected in ((_reduce.csr_matvecs, dense @ x), (_reduce.csc_matvecs, dense.T @ x)):
        out = np.zeros((3, 2), dtype=np.float32)
        kernel(3, 3, 2, indptr, indices, data, x.ravel(), out.ravel())
        assert np.array_equal(out, expected), hint
    assert np.array_equal(csr_product(indptr, indices, data, x, 3), dense @ x), hint
    transposed = csr_product(indptr, indices, data, x, 3, transpose=True)
    assert np.array_equal(transposed, dense.T @ x), hint


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

    def test_gspmm_per_head_loop_equals_materialised_messages(self, graph):
        src, _, n, csr = graph
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((n, 2, 3)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((len(src), 2, 1)).astype(np.float32), requires_grad=True)
        out = gspmm(csr, x, w)
        w_sorted = w.data[csr.edge_ids]
        messages = (w_sorted * x.data[csr.indices]).astype(np.float32)
        assert np.array_equal(out.data, segment_add_rows(messages, csr.indptr))
        seed = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(seed)
        per_edge = (w_sorted * seed[csr.rows]).astype(np.float32)
        assert np.array_equal(x.grad, scatter_add_rows(per_edge, csr.indices, n))

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


class TestOpsLeaveIndexValidationToTheKernel:
    """``scatter_sum`` / ``scatter_max`` run no scan of their own any more."""

    @pytest.mark.parametrize("op", [scatter_sum, scatter_max])
    @pytest.mark.parametrize(
        "index", [np.array([0.0, 1.0]), np.array([True, False])], ids=["float", "bool"]
    )
    def test_non_integer_index_raises(self, op, index):
        with pytest.raises(TypeError, match="integer array"):
            op(Tensor(np.ones((2, 2), np.float32)), index, 2)

    def test_int32_index_is_accepted(self):
        src = Tensor(np.arange(4, dtype=np.float32).reshape(2, 2))
        index = np.array([1, 1], dtype=np.int32)
        assert np.array_equal(scatter_sum(src, index, 2).data, [[0, 0], [2, 4]])
        assert np.array_equal(scatter_max(src, index, 2).data, [[0, 0], [2, 3]])
