"""Property-based invariants of NN layers and graph normalisations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import BatchNorm1d
from repro.nn.functional import l2_normalize
from repro.pygx import edge_softmax
from repro.tensor import Tensor, ops, scatter_mean


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shift=st.floats(-10, 10),
    scale=st.floats(0.1, 10),
)
def test_batchnorm_invariant_to_affine_input_changes(seed, shift, scale):
    """BN(a*x + b) == BN(x) in training mode (per-feature affine removed)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(32, 3)).astype(np.float32)
    bn = BatchNorm1d(3)
    base = bn(Tensor(x)).data
    bn2 = BatchNorm1d(3)
    moved = bn2(Tensor(x * scale + shift)).data
    np.testing.assert_allclose(base, moved, atol=5e-3)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), shift=st.floats(-20, 20))
def test_log_softmax_translation_invariance(seed, shift):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 5)).astype(np.float32)
    a = ops.log_softmax(Tensor(x)).data
    b = ops.log_softmax(Tensor(x + np.float32(shift))).data
    np.testing.assert_allclose(a, b, atol=1e-5)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_l2_normalize_idempotent(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(6, 4)).astype(np.float32))
    once = l2_normalize(x)
    twice = l2_normalize(once)
    np.testing.assert_allclose(once.data, twice.data, atol=1e-5)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n_src=st.integers(1, 30), n_bins=st.integers(1, 6))
def test_scatter_mean_bounded_by_contributions(seed, n_src, n_bins):
    rng = np.random.default_rng(seed)
    src = rng.normal(size=(n_src, 2)).astype(np.float32)
    index = rng.integers(0, n_bins, size=n_src)
    out = scatter_mean(Tensor(src), index, n_bins).data
    for b in range(n_bins):
        members = src[index == b]
        if len(members):
            assert np.all(out[b] <= members.max(axis=0) + 1e-5)
            assert np.all(out[b] >= members.min(axis=0) - 1e-5)
        else:
            np.testing.assert_array_equal(out[b], np.zeros(2, np.float32))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n_edges=st.integers(1, 40), n_nodes=st.integers(1, 8))
def test_edge_softmax_is_distribution_per_destination(seed, n_edges, n_nodes):
    rng = np.random.default_rng(seed)
    dst = rng.integers(0, n_nodes, size=n_edges)
    scores = Tensor(rng.normal(size=(n_edges, 2)).astype(np.float32))
    out = edge_softmax(scores, dst, n_nodes).data
    assert np.all(out > 0.0) and np.all(out <= 1.0 + 1e-6)
    sums = np.zeros((n_nodes, 2), np.float32)
    np.add.at(sums, dst, out)
    for node in range(n_nodes):
        if (dst == node).any():
            np.testing.assert_allclose(sums[node], [1.0, 1.0], rtol=1e-4)
