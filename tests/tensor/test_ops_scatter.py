"""Scatter / gather / segment kernels: correctness, edge cases, properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import (
    Tensor,
    index_rows,
    scatter,
    scatter_max,
    scatter_mean,
    scatter_sum,
    segment_max,
    segment_mean,
    segment_reduce,
    segment_sum,
)


def t(arr):
    return Tensor(np.asarray(arr, dtype=np.float32))


class TestGather:
    def test_selects_rows(self):
        x = t([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = index_rows(x, np.array([2, 0, 2]))
        np.testing.assert_allclose(out.data, [[5, 6], [1, 2], [5, 6]])

    def test_backward_scatter_adds(self):
        x = Tensor(np.zeros((3, 1), np.float32), requires_grad=True)
        out = index_rows(x, np.array([1, 1, 0]))
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [[1.0], [2.0], [0.0]])

    def test_rejects_float_index(self):
        with pytest.raises(TypeError):
            index_rows(t([[1.0]]), np.array([0.0]))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_rejects_out_of_range_index(self, bad):
        x = t([[1.0], [2.0], [3.0]])
        with pytest.raises(IndexError, match="out of range for 3 rows"):
            index_rows(x, np.array([0, bad]))

    def test_empty_index_of_empty_input(self):
        assert index_rows(t(np.zeros((0, 2))), np.array([], dtype=np.int64)).shape == (0, 2)


class TestScatter:
    @pytest.mark.parametrize("op", [scatter_sum, scatter_mean, scatter_max])
    @pytest.mark.parametrize("bad", [-1, 2])
    def test_rejects_out_of_range_index(self, op, bad):
        with pytest.raises(IndexError, match="out of range for 2 rows"):
            op(t([[1.0], [2.0]]), np.array([0, bad]), 2)

    def test_sum_values(self):
        out = scatter_sum(t([[1.0], [2.0], [3.0]]), np.array([0, 0, 2]), 3)
        np.testing.assert_allclose(out.data, [[3.0], [0.0], [3.0]])

    def test_mean_values_and_empty_bins(self):
        out = scatter_mean(t([[2.0], [4.0], [6.0]]), np.array([0, 0, 2]), 4)
        np.testing.assert_allclose(out.data, [[3.0], [0.0], [6.0], [0.0]])

    def test_max_values_and_empty_bins_zero(self):
        out = scatter_max(t([[-5.0], [-1.0]]), np.array([0, 0]), 2)
        np.testing.assert_allclose(out.data, [[-1.0], [0.0]])

    def test_max_backward_routes_to_winner(self):
        src = Tensor(np.array([[1.0], [3.0], [2.0]], np.float32), requires_grad=True)
        scatter_max(src, np.array([0, 0, 0]), 1).sum().backward()
        np.testing.assert_allclose(src.grad, [[0.0], [1.0], [0.0]])

    def test_max_ties_share_gradient(self):
        src = Tensor(np.array([[2.0], [2.0]], np.float32), requires_grad=True)
        scatter_max(src, np.array([0, 0]), 1).sum().backward()
        np.testing.assert_allclose(src.grad, [[0.5], [0.5]])

    def test_mean_backward_scales_by_count(self):
        src = Tensor(np.ones((4, 1), np.float32), requires_grad=True)
        scatter_mean(src, np.array([0, 0, 0, 1]), 2).sum().backward()
        np.testing.assert_allclose(src.grad, [[1 / 3]] * 3 + [[1.0]], rtol=1e-5)

    def test_dispatch_and_unknown_reduce(self):
        src = t([[1.0]])
        assert scatter(src, np.array([0]), 1, "sum").data[0, 0] == 1.0
        with pytest.raises(ValueError):
            scatter(src, np.array([0]), 1, "median")

    def test_index_length_mismatch(self):
        with pytest.raises(ValueError):
            scatter_sum(t([[1.0], [2.0]]), np.array([0]), 2)

    def test_3d_sources(self):
        src = t(np.ones((4, 2, 3)))
        out = scatter_sum(src, np.array([0, 1, 1, 1]), 2)
        assert out.shape == (2, 2, 3)
        np.testing.assert_allclose(out.data[1], np.full((2, 3), 3.0))


class TestSegment:
    def test_sum_with_empty_segments(self):
        src = t(np.arange(6).reshape(6, 1))
        out = segment_sum(src, np.array([0, 2, 2, 6]))
        np.testing.assert_allclose(out.data, [[1.0], [0.0], [14.0]])

    def test_trailing_empty_segment(self):
        src = t(np.ones((3, 1)))
        out = segment_sum(src, np.array([0, 3, 3]))
        np.testing.assert_allclose(out.data, [[3.0], [0.0]])

    def test_mean(self):
        src = t([[2.0], [4.0], [9.0]])
        out = segment_mean(src, np.array([0, 2, 3]))
        np.testing.assert_allclose(out.data, [[3.0], [9.0]])

    def test_max_with_empty(self):
        src = t([[-3.0], [-1.0]])
        out = segment_max(src, np.array([0, 2, 2]))
        np.testing.assert_allclose(out.data, [[-1.0], [0.0]])

    def test_sum_backward_repeats(self):
        src = Tensor(np.ones((4, 1), np.float32), requires_grad=True)
        out = segment_sum(src, np.array([0, 1, 4]))
        (out * t([[2.0], [3.0]])).sum().backward()
        np.testing.assert_allclose(src.grad, [[2.0], [3.0], [3.0], [3.0]])

    def test_mean_backward(self):
        src = Tensor(np.ones((4, 1), np.float32), requires_grad=True)
        segment_mean(src, np.array([0, 4])).sum().backward()
        np.testing.assert_allclose(src.grad, np.full((4, 1), 0.25))

    def test_invalid_offsets(self):
        with pytest.raises(ValueError):
            segment_sum(t(np.ones((3, 1))), np.array([0, 2]))  # must end at 3
        with pytest.raises(ValueError):
            segment_sum(t(np.ones((3, 1))), np.array([0, 2, 1, 3]))

    def test_dispatch(self):
        src = t(np.ones((2, 1)))
        offsets = np.array([0, 2])
        for reduce in ("sum", "mean", "max"):
            assert segment_reduce(src, offsets, reduce).shape == (1, 1)
        with pytest.raises(ValueError):
            segment_reduce(src, offsets, "prod")


@settings(max_examples=30, deadline=None)
@given(
    n_src=st.integers(1, 30),
    n_bins=st.integers(1, 8),
    width=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_scatter_sum_matches_loop(n_src, n_bins, width, seed):
    rng = np.random.default_rng(seed)
    src = rng.normal(size=(n_src, width)).astype(np.float32)
    index = rng.integers(0, n_bins, size=n_src)
    out = scatter_sum(Tensor(src), index, n_bins).data
    expected = np.zeros((n_bins, width), np.float32)
    for row, i in zip(src, index):
        expected[i] += row
    np.testing.assert_allclose(out, expected, atol=1e-4)


@settings(max_examples=30, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 6), min_size=1, max_size=8),
    seed=st.integers(0, 10_000),
)
def test_segment_sum_matches_split(lengths, seed):
    rng = np.random.default_rng(seed)
    total = sum(lengths)
    src = rng.normal(size=(total, 2)).astype(np.float32)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    out = segment_sum(Tensor(src), offsets).data
    expected = np.stack(
        [
            src[a:b].sum(axis=0) if b > a else np.zeros(2, np.float32)
            for a, b in zip(offsets[:-1], offsets[1:])
        ]
    )
    np.testing.assert_allclose(out, expected, atol=1e-4)


@settings(max_examples=25, deadline=None)
@given(
    n_src=st.integers(1, 25),
    n_bins=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_scatter_then_gather_grad_is_count(n_src, n_bins, seed):
    """d(sum scatter_sum(x))/dx is 1 for every source row."""
    rng = np.random.default_rng(seed)
    src = Tensor(rng.normal(size=(n_src, 3)).astype(np.float32), requires_grad=True)
    index = rng.integers(0, n_bins, size=n_src)
    scatter_sum(src, index, n_bins).sum().backward()
    np.testing.assert_allclose(src.grad, np.ones((n_src, 3)), atol=1e-5)
