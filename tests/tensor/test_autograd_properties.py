"""Property-based autograd invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.tensor import Tensor, ops


def _tensor(rng, shape, requires_grad=True):
    return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=requires_grad)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), rows=st.integers(1, 6), cols=st.integers(1, 6))
def test_grad_of_sum_is_ones(seed, rows, cols):
    rng = np.random.default_rng(seed)
    x = _tensor(rng, (rows, cols))
    x.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones((rows, cols)), atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(-3, 3))
def test_backward_is_linear_in_seed_gradient(seed, scale):
    rng = np.random.default_rng(seed)
    x = _tensor(rng, (4,))
    y = ops.mul(x, x)
    y.backward(np.ones(4, np.float32))
    base = x.grad.copy()

    x2 = Tensor(x.data.copy(), requires_grad=True)
    y2 = ops.mul(x2, x2)
    y2.backward(np.full(4, scale, np.float32))
    np.testing.assert_allclose(x2.grad, scale * base, rtol=1e-4, atol=1e-4)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_sum_rule(seed):
    """grad(f + g) == grad(f) + grad(g)."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(5,)).astype(np.float32)

    def grad_of(builder):
        x = Tensor(data.copy(), requires_grad=True)
        builder(x).sum().backward()
        return x.grad

    f = lambda x: ops.mul(x, x)
    g = lambda x: ops.exp(x)
    combined = lambda x: ops.add(ops.mul(x, x), ops.exp(x))
    np.testing.assert_allclose(
        grad_of(combined), grad_of(f) + grad_of(g), rtol=1e-4, atol=1e-4
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), depth=st.integers(1, 6))
def test_random_expression_chain_gradient(seed, depth):
    """A random unary chain matches its central-difference derivative."""
    rng = np.random.default_rng(seed)
    # smooth ops only: central differences are invalid at ReLU kinks
    unaries = [ops.tanh, ops.sigmoid, lambda t: ops.mul(t, t), ops.exp]
    picks = [unaries[i] for i in rng.integers(0, len(unaries), size=depth)]
    base = rng.normal(size=(3,)).astype(np.float32) * 0.5 + 0.3

    def run(arr):
        t = Tensor(arr, requires_grad=True)
        out = t
        for fn in picks:
            out = fn(out)
        return t, out.sum()

    t, out = run(base.copy())
    out.backward()
    eps = 1e-2
    idx = int(rng.integers(0, 3))
    # exp/square chains can reach ~1e12, where float32 central differences
    # are dominated by truncation error; only check the trustworthy regime
    assume(np.all(np.isfinite(t.grad)) and abs(float(t.grad[idx])) < 1e4)
    # The ±eps step must also move the loss by much more than one float32
    # ulp at the loss's own magnitude, or the difference quantises to 0
    # (e.g. loss ~2e9 has ulp 128 while grad*eps may be ~1).
    resolution = np.spacing(np.float32(abs(out.item()))) / (2 * eps)
    assume(resolution < 0.01 * max(abs(float(t.grad[idx])), 1.0))
    plus = base.copy()
    plus[idx] += eps
    minus = base.copy()
    minus[idx] -= eps
    numeric = (run(plus)[1].item() - run(minus)[1].item()) / (2 * eps)
    assert t.grad[idx] == pytest.approx(numeric, rel=2e-2, abs=5e-2)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 8), m=st.integers(1, 8))
def test_matmul_identity_preserves_gradient(seed, n, m):
    rng = np.random.default_rng(seed)
    x = _tensor(rng, (n, m))
    eye = Tensor(np.eye(m, dtype=np.float32))
    ops.matmul(x, eye).sum().backward()
    np.testing.assert_allclose(x.grad, np.ones((n, m)), atol=1e-5)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_log_softmax_grad_rows_sum_to_zero(seed):
    """d(sum_j log_softmax_j)/dx_k = 1 - n * softmax_k, which sums to 0 per row."""
    rng = np.random.default_rng(seed)
    x = _tensor(rng, (2, 5))
    ops.log_softmax(x, axis=-1).sum().backward()
    np.testing.assert_allclose(x.grad.sum(axis=-1), np.zeros(2), atol=1e-5)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_detached_branch_gets_no_gradient(seed):
    rng = np.random.default_rng(seed)
    x = _tensor(rng, (4,))
    frozen = Tensor(ops.mul(x, x).data)  # the same values, cut from the graph
    out = ops.mul(x, frozen).sum()
    out.backward()
    # gradient flows only through the non-detached factor: d/dx = frozen
    np.testing.assert_allclose(x.grad, frozen.data, rtol=1e-5)
