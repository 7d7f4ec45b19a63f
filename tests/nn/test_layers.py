"""BatchNorm, activations, losses, functional helpers."""

import numpy as np
import pytest

from repro.nn import BatchNorm1d, ReLU, accuracy, cross_entropy
from repro.nn.functional import l2_normalize
from repro.tensor import Tensor


class TestBatchNorm:
    def test_normalises_batch_in_training(self, rng):
        bn = BatchNorm1d(3)
        x = Tensor(rng.normal(5.0, 2.0, size=(64, 3)).astype(np.float32))
        out = bn(x)
        assert out.data.mean(axis=0) == pytest.approx(np.zeros(3), abs=1e-4)
        assert out.data.std(axis=0) == pytest.approx(np.ones(3), abs=1e-2)

    def test_running_stats_updated(self, rng):
        bn = BatchNorm1d(2, momentum=0.5)
        x = Tensor(np.full((10, 2), 4.0, np.float32))
        bn(x)
        np.testing.assert_allclose(bn.running_mean, [2.0, 2.0])

    def test_eval_uses_running_stats(self):
        bn = BatchNorm1d(1, eps=0.0)
        bn.running_mean[:] = 1.0
        bn.running_var[:] = 4.0
        bn.eval()
        out = bn(Tensor(np.array([[3.0]], np.float32)))
        assert out.data[0, 0] == pytest.approx(1.0)

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError):
            BatchNorm1d(3)(Tensor(np.zeros(3, np.float32)))

    def test_invalid_features(self):
        with pytest.raises(ValueError):
            BatchNorm1d(0)

    def test_gamma_beta_learnable(self, rng):
        bn = BatchNorm1d(3)
        x = Tensor(rng.normal(size=(8, 3)).astype(np.float32), requires_grad=True)
        bn(x).sum().backward()
        assert bn.gamma.grad is not None
        assert bn.beta.grad is not None


class TestActivationsModules:
    @pytest.mark.parametrize(
        "module,value,expected",
        [
            (ReLU(), -1.0, 0.0),
        ],
    )
    def test_values(self, module, value, expected):
        out = module(Tensor(np.array([value], np.float32)))
        assert out.data[0] == pytest.approx(expected)


class TestLosses:
    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((2, 4), np.float32))
        loss = cross_entropy(logits, np.array([0, 3]))
        assert loss.item() == pytest.approx(np.log(4.0), rel=1e-5)

    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.array([[100.0, 0.0]], np.float32))
        assert cross_entropy(logits, np.array([0])).item() == pytest.approx(0.0, abs=1e-4)

    def test_cross_entropy_grad_shape(self):
        logits = Tensor(np.zeros((3, 4), np.float32), requires_grad=True)
        cross_entropy(logits, np.array([0, 1, 2])).backward()
        assert logits.grad.shape == (3, 4)
        # gradient rows sum to zero for softmax CE
        np.testing.assert_allclose(logits.grad.sum(axis=1), np.zeros(3), atol=1e-6)

    def test_accuracy(self):
        logits = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], np.float32))
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_empty(self):
        assert accuracy(Tensor(np.zeros((0, 2), np.float32)), np.array([])) == 0.0


class TestFunctional:
    def test_l2_normalize_unit_rows(self, rng):
        x = Tensor(rng.normal(size=(5, 4)).astype(np.float32))
        out = l2_normalize(x)
        np.testing.assert_allclose(
            np.linalg.norm(out.data, axis=1), np.ones(5), rtol=1e-4
        )

    def test_l2_normalize_zero_row_safe(self):
        x = Tensor(np.zeros((1, 3), np.float32))
        out = l2_normalize(x)
        assert np.all(np.isfinite(out.data))
