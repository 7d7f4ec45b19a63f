"""The block-wise uniform draw against the one-shot draws it replaced.

``ops.dropout`` and the citation generators used to ask for a full-size
float64 ``rng.random(shape)`` and threshold it; they now walk the same
stream through ``repro._random.random_blocks``.  The one-shot forms live
here as the oracle: outputs, masks, gradients and the generator's position
afterwards must be ``array_equal``, for any shape, layout and bit generator.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro._random
from repro._random import BLOCK
from repro.datasets import citation, cora, pubmed
from repro.tensor import Tensor, ops
from tests.tensor.test_activation_kernels import inputs

BIT_GENERATORS = (np.random.PCG64, np.random.MT19937)
PROBABILITIES = (0.1, 0.5, 0.9)


def _one_shot_dropout(x, grad, p, rng):
    mask = (rng.random(x.shape) >= p).astype(np.float32) / np.float32(1.0 - p)
    return x * mask, grad * mask


def _assert_dropout_matches_one_shot(x, grad, p, bit_generator):
    x_before = x.copy()
    rng, oracle_rng = (np.random.Generator(bit_generator(7)) for _ in range(2))
    with np.errstate(all="ignore"):  # inf * 0, 3e38 * 2: in both forms
        expected_out, expected_grad = _one_shot_dropout(x, grad, p, oracle_rng)
        a = Tensor(x, requires_grad=True)
        out = ops.dropout(a, p, training=True, rng=rng)
        out.backward(grad)

    assert out.data.dtype == np.float32 and out.shape == x.shape
    assert np.array_equal(out.data, expected_out, equal_nan=True)
    assert np.array_equal(a.grad, expected_grad, equal_nan=True)
    assert np.array_equal(x, x_before, equal_nan=True), "dropout wrote to its input"
    assert np.array_equal(rng.random(5), oracle_rng.random(5)), "generator left elsewhere"


class TestDropout:
    @settings(max_examples=120, deadline=None)
    @given(inputs(), st.sampled_from(PROBABILITIES), st.sampled_from(BIT_GENERATORS))
    def test_any_shape_and_layout_with_a_small_block(self, case, p, bit_generator):
        # 0-size to 3-D, strided and transposed views, non-finite elements; a
        # 16-element block puts most of these shapes across several blocks.
        x, grad = case
        with mock.patch.object(repro._random, "BLOCK", 16):
            _assert_dropout_matches_one_shot(x, grad, p, bit_generator)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("p", PROBABILITIES)
    @pytest.mark.parametrize("size", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_block_boundaries_at_the_real_block(self, size, p, bit_generator):
        x, grad = np.random.default_rng(size % 7).standard_normal((2, size)).astype(np.float32)
        _assert_dropout_matches_one_shot(x, grad, p, bit_generator)

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_dimensional_input(self, seed):
        # Forward only: a 0-d gradient product is a numpy scalar, which no op's backward tracks.
        x = np.asarray(np.float32(2.5))
        out = ops.dropout(Tensor(x), 0.5, training=True, rng=np.random.default_rng(seed))
        expected, _ = _one_shot_dropout(x, x, 0.5, np.random.default_rng(seed))
        assert out.shape == () and np.array_equal(out.data, expected)

    def test_no_request_above_the_block_on_a_cora_sized_input(self):
        class SpyGenerator:
            """Duck-typed generator: delegates, and records the size of every request."""

            def __init__(self, rng):
                self.rng, self.requests = rng, []

            def random(self, size=None, dtype=np.float64, out=None):
                self.requests.append(int(np.prod(size)) if out is None else out.size)
                return self.rng.random(size, dtype, out)

        spy = SpyGenerator(np.random.default_rng(0))
        x = Tensor(np.ones((2708, 1433), dtype=np.float32))
        out = ops.dropout(x, 0.5, training=True, rng=spy)
        assert sum(spy.requests) == x.size
        assert max(spy.requests) <= BLOCK, "a full-size draw sets the process's high-water mark"
        expected, _ = _one_shot_dropout(x.data, x.data, 0.5, np.random.default_rng(0))
        assert np.array_equal(out.data, expected)


def _one_shot_blocks(rng, size):
    """``random_blocks`` as one request: the generator as it was."""
    yield 0, size, rng.random(size)


@pytest.mark.parametrize(
    "factory, seed", [(cora, 0), (cora, 1), (cora, 2), (cora, 3), (pubmed, 0)]
)
def test_citation_datasets_equal_the_one_shot_generator(factory, seed):
    ours = factory(seed)
    with mock.patch.object(citation, "random_blocks", _one_shot_blocks):
        oracle = factory(seed)
    assert ours.graph.x.dtype == np.float32 and ours.graph.x.flags.c_contiguous
    for field in ("x", "edge_index", "y"):
        assert np.array_equal(getattr(ours.graph, field), getattr(oracle.graph, field)), field
    for field in ("train_idx", "val_idx", "test_idx"):
        assert np.array_equal(getattr(ours, field), getattr(oracle, field)), field
    assert (ours.name, ours.num_classes) == (oracle.name, oracle.num_classes)
