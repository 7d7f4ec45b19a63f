"""Core Tensor behaviour: creation, autograd mechanics, graph traversal."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad


class TestCreation:
    def test_wraps_float32(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.data.dtype == np.float32
        assert t.shape == (3,)
        assert t.size == 3
        assert t.nbytes == 12

    def test_rejects_tensor_input(self):
        with pytest.raises(TypeError):
            Tensor(Tensor([1.0]))

    def test_requires_grad_default_off(self):
        assert not Tensor([1.0]).requires_grad

    def test_len_and_ndim(self):
        t = Tensor(np.zeros((4, 2)))
        assert len(t) == 4
        assert t.ndim == 2

    def test_item_scalar(self):
        assert Tensor([2.5]).item() == pytest.approx(2.5)

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))


class TestBackward:
    def test_scalar_backward_seeds_ones(self):
        a = Tensor([3.0], requires_grad=True)
        (a * a).sum().backward()
        assert a.grad == pytest.approx([6.0])

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_grad_arg(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = a * 2.0
        with pytest.raises(RuntimeError):
            out.backward()
        out2 = a * 2.0
        out2.backward(np.ones(2, np.float32))
        assert a.grad == pytest.approx([2.0, 2.0])

    @pytest.mark.parametrize("seed_shape", [(4, 2, 3), (3,), (1, 3), (), (2, 3, 1)])
    def test_backward_rejects_a_seed_gradient_of_another_shape(self, seed_shape):
        # Broadcasting plus unbroadcast used to sum a (4, 2, 3) seed into a
        # (2, 3) gradient four times too large, silently.
        x = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        y = x * 2.0
        with pytest.raises(ValueError, match=r"Mismatch in shape.*\(2, 3\)") as raised:
            y.backward(np.ones(seed_shape))
        assert str(seed_shape) in str(raised.value)
        assert x.grad is None
        y.backward(np.ones((2, 3)))  # the right shape, any float dtype, still runs
        assert x.grad.shape == (2, 3) and x.grad.dtype == np.float32

    def test_diamond_graph_accumulates_once_per_path(self):
        # y = (a + a*a); dy/da = 1 + 2a
        a = Tensor([2.0], requires_grad=True)
        y = (a + a * a).sum()
        y.backward()
        assert a.grad == pytest.approx([5.0])

    def test_grad_accumulates_across_backwards(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        (a * 3.0).sum().backward()
        assert a.grad == pytest.approx([5.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_deep_chain_no_recursion_error(self):
        a = Tensor([1.0], requires_grad=True)
        x = a
        for _ in range(2000):
            x = x + 1.0
        x.sum().backward()
        assert a.grad == pytest.approx([1.0])

    def test_tape_freed_after_backward(self):
        a = Tensor([1.0], requires_grad=True)
        b = a * 2.0
        out = b.sum()
        out.backward()
        assert out._node.backward is None
        assert out._node.parents == ()


class TestNoGrad:
    def test_no_graph_recorded(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad
        assert out._node is None

    def test_restores_mode_on_exception(self):
        from repro.tensor import grad_enabled

        try:
            with no_grad():
                raise ValueError
        except ValueError:
            pass
        assert grad_enabled()


class TestOperatorSugar:
    def test_radd_rsub_rmul_rdiv(self):
        a = Tensor([2.0])
        assert (1.0 + a).data == pytest.approx([3.0])
        assert (1.0 - a).data == pytest.approx([-1.0])
        assert (3.0 * a).data == pytest.approx([6.0])
        assert (4.0 / a).data == pytest.approx([2.0])

    def test_neg_and_pow(self):
        a = Tensor([2.0])
        assert (-a).data == pytest.approx([-2.0])
        assert (a**3).data == pytest.approx([8.0])

    def test_transpose_property(self):
        t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        assert t.T.shape == (3, 2)
