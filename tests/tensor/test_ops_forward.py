"""Forward-value correctness of dense ops against numpy references."""

import numpy as np
import pytest

from repro.tensor import Tensor, ops


def t(arr):
    return Tensor(np.asarray(arr, dtype=np.float32))


class TestArithmetic:
    def test_add_values(self):
        np.testing.assert_allclose(ops.add(t([1, 2]), t([3, 4])).data, [4, 6])

    def test_broadcast_row(self):
        out = ops.add(t(np.zeros((2, 3))), t([1, 2, 3]))
        np.testing.assert_allclose(out.data, [[1, 2, 3], [1, 2, 3]])

    def test_matmul_matches_numpy(self, rng):
        a = rng.normal(size=(4, 5)).astype(np.float32)
        b = rng.normal(size=(5, 3)).astype(np.float32)
        np.testing.assert_allclose(ops.matmul(t(a), t(b)).data, a @ b, rtol=1e-5)

    def test_matmul_rejects_1d(self):
        with pytest.raises(ValueError):
            ops.matmul(t([1.0, 2.0]), t([[1.0], [2.0]]))

    def test_matmul_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            ops.matmul(t(np.zeros((2, 3))), t(np.zeros((4, 2))))

    def test_div_by_array(self):
        np.testing.assert_allclose(ops.div(t([4.0, 9.0]), t([2.0, 3.0])).data, [2, 3])


class TestActivations:
    def test_relu_clamps_negatives(self):
        np.testing.assert_allclose(ops.relu(t([-1, 0, 2])).data, [0, 0, 2])

    def test_leaky_relu_slope(self):
        np.testing.assert_allclose(
            ops.leaky_relu(t([-2.0, 2.0]), 0.1).data, [-0.2, 2.0], rtol=1e-6
        )

    def test_elu_negative_branch(self):
        out = ops.elu(t([-1.0]))
        assert out.data[0] == pytest.approx(np.expm1(-1.0), rel=1e-5)

    def test_sigmoid_range_and_midpoint(self):
        out = ops.sigmoid(t([-50.0, 0.0, 50.0]))
        assert out.data[0] == pytest.approx(0.0, abs=1e-6)
        assert out.data[1] == pytest.approx(0.5)
        assert out.data[2] == pytest.approx(1.0, abs=1e-6)

    def test_log_softmax_rows_exp_sum_to_one(self, rng):
        out = ops.log_softmax(t(rng.normal(size=(4, 6))), axis=-1)
        np.testing.assert_allclose(np.exp(out.data).sum(axis=-1), np.ones(4), rtol=1e-5)

    def test_log_softmax_stable_for_large_logits(self):
        out = ops.log_softmax(t([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[np.log(0.5), np.log(0.5)]])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = rng.normal(size=(3, 4)).astype(np.float32)
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        np.testing.assert_allclose(
            ops.log_softmax(t(x)).data, np.log(e / e.sum(axis=-1, keepdims=True)), atol=1e-5
        )


class TestReductions:
    def test_sum_axis_keepdims(self, rng):
        x = rng.normal(size=(3, 4)).astype(np.float32)
        out = ops.sum(t(x), axis=1, keepdims=True)
        assert out.shape == (3, 1)
        np.testing.assert_allclose(out.data, x.sum(axis=1, keepdims=True), rtol=1e-5)

    def test_mean_all(self, rng):
        x = rng.normal(size=(5, 2)).astype(np.float32)
        assert ops.mean(t(x)).item() == pytest.approx(x.mean(), rel=1e-5)

    def test_max_matches_numpy(self, rng):
        x = rng.normal(size=(3, 7)).astype(np.float32)
        np.testing.assert_allclose(ops.max(t(x), axis=1).data, x.max(axis=1))


class TestShape:
    def test_reshape_roundtrip(self):
        x = t(np.arange(6).reshape(2, 3))
        assert ops.reshape(x, (3, 2)).shape == (3, 2)

    def test_reshape_launches_no_kernel(self, fresh_device):
        x = t(np.arange(6).reshape(2, 3))
        before = fresh_device.clock.elapsed
        ops.reshape(x, (6,))
        assert fresh_device.clock.elapsed == before

    def test_concat_values(self):
        out = ops.concat([t([1.0]), t([2.0, 3.0])], axis=0)
        np.testing.assert_allclose(out.data, [1, 2, 3])

    def test_concat_empty_list_raises(self):
        with pytest.raises(ValueError):
            ops.concat([], axis=0)

    def test_stack_adds_axis(self):
        out = ops.stack([t([1.0, 2.0]), t([3.0, 4.0])], axis=0)
        assert out.shape == (2, 2)

    def test_transpose_values(self):
        x = t(np.arange(6).reshape(2, 3))
        np.testing.assert_allclose(ops.transpose(x).data, x.data.T)


class TestDropout:
    def test_identity_when_eval(self):
        x = t(np.ones(100))
        out = ops.dropout(x, 0.5, training=False)
        assert out is x

    def test_identity_when_p_zero(self):
        x = t(np.ones(10))
        assert ops.dropout(x, 0.0, training=True) is x

    def test_inverted_scaling_preserves_mean(self, rng):
        x = t(np.ones(20000))
        out = ops.dropout(x, 0.3, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, np.full_like(kept, 1.0 / 0.7), rtol=1e-5)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            ops.dropout(t([1.0]), 1.0, training=True)

    @pytest.mark.parametrize("p, training", [(-0.5, True), (1.5, False)])
    def test_probability_is_validated_before_the_identity_early_out(self, p, training):
        with pytest.raises(ValueError, match=r"must be in \[0, 1\)"):
            ops.dropout(t([1.0]), p, training=training)

    def test_mask_reused_in_backward(self, rng):
        x = Tensor(np.ones(1000, np.float32), requires_grad=True)
        out = ops.dropout(x, 0.5, training=True, rng=rng)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, out.data)
