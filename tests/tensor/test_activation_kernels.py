"""``elu`` / ``leaky_relu`` against the ``np.where`` formulations they replaced.

The kernels are branch-free (``max(x, 0) + f(min(x, 0))``); the select-based
forms they had before live here as the oracle.  Forward and backward must
agree with the oracle for every input — finite, infinite, NaN, subnormal,
past ``exp``'s range — under ``np.array_equal(..., equal_nan=True)``.

Signed-zero policy: ``-0.0 == 0.0`` compares equal and that is accepted.
The branch-free forms add a zero term, which can turn a ``-0.0`` into
``+0.0`` (``elu`` of a tiny negative ``x``); nothing downstream divides by
an activation or takes its sign, so no loss and no gradient can tell.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import Tensor, ops
from repro.tensor.gradcheck import gradcheck

ALPHAS = (1.0, 0.5, 2.0)
SLOPES = (0.01, 0.2, 0.0, 1.0)

_TINY = float(np.finfo(np.float32).tiny)
SPECIALS = (
    0.0, -0.0, np.inf, -np.inf, np.nan,
    _TINY / 4, -_TINY / 4,  # subnormals
    88.5, -88.5, 104.0, -104.0, 3.0e38, -3.0e38,  # exp over/underflows
    1e-9, -1e-9,  # exp(x) rounds to 1: the signed-zero case
)
ELEMENTS = st.one_of(
    st.sampled_from(SPECIALS),
    st.floats(width=32, allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(-4.0, 4.0, width=32),
)


# ----------------------------------------------------------------------
# the oracle: the select-based kernels, as they were
# ----------------------------------------------------------------------
def _where_elu(x, grad, alpha):
    out = np.where(x > 0.0, x, alpha * (np.exp(np.minimum(x, 0.0)) - 1.0)).astype(np.float32)
    local = np.where(x > 0.0, 1.0, out + alpha).astype(np.float32)
    return out, grad * local


def _where_leaky_relu(x, grad, slope):
    out = np.where(x > 0.0, x, slope * x)
    return out, grad * np.where(x > 0.0, 1.0, slope).astype(np.float32)


@st.composite
def inputs(draw):
    """A float32 array (0-size, 1-D to 3-D, maybe a non-contiguous view) and a seed gradient."""
    shape = tuple(draw(st.lists(st.integers(0, 5), min_size=1, max_size=3)))
    layout = draw(st.sampled_from(("contiguous", "strided", "transposed")))
    base_shape = {
        "contiguous": shape,
        "strided": shape[:-1] + (2 * shape[-1],),
        "transposed": shape[::-1],
    }[layout]
    size = int(np.prod(base_shape))
    flat = draw(st.lists(ELEMENTS, min_size=size, max_size=size))
    base = np.array(flat, dtype=np.float32).reshape(base_shape)
    x = {"contiguous": base, "strided": base[..., ::2], "transposed": base.T}[layout]
    assert x.shape == shape
    grad = np.random.default_rng(draw(st.integers(0, 10_000))).normal(size=shape)
    return x, grad.astype(np.float32)


def _check_against_oracle(op, oracle, x, grad, parameter):
    before = x.copy()
    with np.errstate(all="ignore"):
        want_out, want_grad = oracle(x, grad, parameter)
        t = Tensor(x, requires_grad=True)
        assert t.data is x  # the kernel sees the view itself, not a contiguous copy
        out = op(t, parameter)
        out.backward(grad)
    assert out.data.dtype == np.float32 and t.grad.dtype == np.float32
    assert out.shape == x.shape and t.grad.shape == x.shape
    assert np.array_equal(out.data, want_out, equal_nan=True)
    assert np.array_equal(t.grad, want_grad, equal_nan=True)
    assert before.tobytes() == x.tobytes(), "the input array was written"


@settings(max_examples=150, deadline=None)
@given(data=inputs(), alpha=st.sampled_from(ALPHAS))
def test_elu_is_the_where_form(data, alpha):
    _check_against_oracle(ops.elu, _where_elu, *data, alpha)


@settings(max_examples=150, deadline=None)
@given(data=inputs(), slope=st.sampled_from(SLOPES))
def test_leaky_relu_is_the_where_form(data, slope):
    _check_against_oracle(ops.leaky_relu, _where_leaky_relu, *data, slope)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_elu_backward_is_finite_at_infinity(alpha):
    """``(out + alpha) * 0`` would be NaN at ``x = +inf``; ``min(out, 0)`` keeps it 1."""
    t = Tensor(np.array([np.inf, -np.inf, 0.0], np.float32), requires_grad=True)
    ops.elu(t, alpha).backward(np.ones(3, np.float32))
    np.testing.assert_array_equal(t.grad, np.array([1.0, 0.0, alpha], np.float32))


@pytest.mark.parametrize(
    "fn",
    [lambda t: ops.elu(t, 1.0), lambda t: ops.elu(t, 2.0),
     lambda t: ops.leaky_relu(t, 0.2), lambda t: ops.leaky_relu(t, 0.01)],
)
def test_gradcheck_still_passes(fn):
    x = np.random.default_rng(7).normal(size=(5, 4)).astype(np.float32)
    x[np.abs(x) < 0.05] = 0.5  # central differences straddle the kink at 0
    assert gradcheck(fn, [x])
