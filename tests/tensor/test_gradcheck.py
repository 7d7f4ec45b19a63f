"""Numerical gradient checks for every differentiable op.

``check_grad`` perturbs each input coordinate and compares the central
difference against the autograd gradient.  Inputs are float32, so the
tolerance is loose but catches wrong formulas immediately.
"""

import numpy as np
import pytest

from repro.tensor import Tensor, ops
from repro.tensor.ops_nn import batch_norm, nll_loss


def check_grad(fn, *shapes, rng=None, atol=2e-2, positive=False, scale=1.0):
    rng = rng or np.random.default_rng(0)
    arrays = []
    for shape in shapes:
        a = rng.normal(0.0, scale, size=shape)
        if positive:
            a = np.abs(a) + 0.5
        arrays.append(a.astype(np.float32))
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*tensors)
    out.sum().backward()

    eps = 1e-2
    for t, base in zip(tensors, arrays):
        flat = base.reshape(-1)
        for idx in rng.choice(flat.size, size=min(5, flat.size), replace=False):
            plus = base.copy().reshape(-1)
            plus[idx] += eps
            minus = base.copy().reshape(-1)
            minus[idx] -= eps
            f_plus = fn(*[Tensor(plus.reshape(base.shape)) if a is base else Tensor(a) for a in arrays]).sum().item()
            f_minus = fn(*[Tensor(minus.reshape(base.shape)) if a is base else Tensor(a) for a in arrays]).sum().item()
            numeric = (f_plus - f_minus) / (2 * eps)
            analytic = t.grad.reshape(-1)[idx]
            assert analytic == pytest.approx(numeric, abs=atol), (
                f"grad mismatch at {idx}: {analytic} vs {numeric}"
            )


class TestArithmeticGrads:
    def test_add(self):
        check_grad(ops.add, (3, 4), (3, 4))

    def test_add_broadcast(self):
        check_grad(ops.add, (3, 4), (4,))

    def test_sub(self):
        check_grad(ops.sub, (2, 3), (2, 3))

    def test_mul(self):
        check_grad(ops.mul, (3, 4), (3, 4))

    def test_mul_broadcast_column(self):
        check_grad(ops.mul, (3, 4), (3, 1))

    def test_div(self):
        check_grad(ops.div, (3, 3), (3, 3), positive=True)

    def test_neg(self):
        check_grad(ops.neg, (4,))

    def test_pow(self):
        check_grad(lambda a: ops.pow_scalar(a, 3.0), (4,), positive=True)

    def test_exp(self):
        check_grad(ops.exp, (3, 3))

    def test_log(self):
        check_grad(ops.log, (5,), positive=True)

    def test_sqrt(self):
        check_grad(ops.sqrt, (5,), positive=True)

    def test_matmul(self):
        check_grad(ops.matmul, (3, 4), (4, 2))


class TestActivationGrads:
    def test_relu(self):
        check_grad(ops.relu, (4, 4))

    def test_leaky_relu(self):
        check_grad(lambda a: ops.leaky_relu(a, 0.1), (4, 4))

    def test_elu(self):
        check_grad(ops.elu, (4, 4))

    def test_sigmoid(self):
        check_grad(ops.sigmoid, (4, 4))

    def test_tanh(self):
        check_grad(ops.tanh, (4, 4))

    def test_log_softmax(self):
        check_grad(lambda a: ops.log_softmax(a, axis=-1), (3, 5))

    def test_clamp_min(self):
        check_grad(lambda a: ops.clamp_min(a, 0.25), (6,), positive=True)


class TestReductionGrads:
    def test_sum_all(self):
        check_grad(lambda a: ops.sum(a), (3, 4))

    def test_sum_axis(self):
        check_grad(lambda a: ops.sum(a, axis=0), (3, 4))

    def test_sum_keepdims(self):
        check_grad(lambda a: ops.sum(a, axis=1, keepdims=True), (3, 4))

    def test_mean_all(self):
        check_grad(lambda a: ops.mean(a), (3, 4))

    def test_mean_axis(self):
        check_grad(lambda a: ops.mean(a, axis=-1), (2, 5))

    def test_max_axis(self):
        # distinct values avoid subgradient ties
        a = np.arange(12, dtype=np.float32).reshape(3, 4)
        t = Tensor(a, requires_grad=True)
        ops.max(t, axis=1).sum().backward()
        expected = np.zeros((3, 4), np.float32)
        expected[:, 3] = 1.0
        np.testing.assert_allclose(t.grad, expected)


class TestShapeGrads:
    def test_reshape(self):
        check_grad(lambda a: ops.reshape(a, (6,)), (2, 3))

    def test_transpose(self):
        check_grad(lambda a: ops.transpose(a, 0, 1), (2, 3))

    def test_concat(self):
        check_grad(lambda a, b: ops.concat([a, b], axis=1), (2, 3), (2, 2))

    def test_stack(self):
        check_grad(lambda a, b: ops.stack([a, b], axis=0), (2, 3), (2, 3))


class TestNNGrads:
    def test_batch_norm_training(self):
        running_mean = np.zeros(4, np.float32)
        running_var = np.ones(4, np.float32)

        def fn(x, gamma, beta):
            return batch_norm(
                x, gamma, beta, running_mean.copy(), running_var.copy(), training=True
            )

        check_grad(fn, (8, 4), (4,), (4,), atol=5e-2)

    def test_batch_norm_eval(self):
        running_mean = np.full(4, 0.3, np.float32)
        running_var = np.full(4, 2.0, np.float32)

        def fn(x, gamma, beta):
            return batch_norm(
                x, gamma, beta, running_mean, running_var, training=False
            )

        check_grad(fn, (8, 4), (4,), (4,))

    def test_nll_loss(self):
        targets = np.array([0, 2, 1])
        check_grad(lambda lp: nll_loss(ops.log_softmax(lp), targets), (3, 4))


class TestGradcheckUtility:
    def test_passes_for_correct_op(self):
        from repro.tensor import gradcheck

        rng = np.random.default_rng(0)
        assert gradcheck(lambda a, b: ops.mul(a, b), [rng.normal(size=4), rng.normal(size=4)])

    def test_fails_for_wrong_gradient(self):
        from repro.tensor import GradcheckError, gradcheck
        from repro.tensor.tensor import make_op

        def bad_op(a):
            out = a.data * 2.0
            return make_op("bad", out, (a,), lambda g: (g * 3.0,), 1.0, 1.0)

        with pytest.raises(GradcheckError):
            gradcheck(bad_op, [np.ones(3, np.float32)])

    def test_passes_through_relu_of_square(self):
        from repro.tensor import gradcheck

        assert gradcheck(lambda a: ops.relu(ops.mul(a, a)), [np.full(3, 2.0)])
