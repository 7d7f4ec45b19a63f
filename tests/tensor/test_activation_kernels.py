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
def _where_elu(x, grad, alpha=1.0):
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


def _check_against_oracle(op, oracle, x, grad, *parameter):
    before = x.copy()
    with np.errstate(all="ignore"):
        want_out, want_grad = oracle(x, grad, *parameter)
        t = Tensor(x, requires_grad=True)
        assert t.data is x  # the kernel sees the view itself, not a contiguous copy
        out = op(t, *parameter)
        out.backward(grad)
    assert out.data.dtype == np.float32 and t.grad.dtype == np.float32
    assert out.shape == x.shape and t.grad.shape == x.shape
    assert np.array_equal(out.data, want_out, equal_nan=True)
    assert np.array_equal(t.grad, want_grad, equal_nan=True)
    assert before.tobytes() == x.tobytes(), "the input array was written"


@settings(max_examples=150, deadline=None)
@given(data=inputs())
def test_elu_is_the_where_form(data):
    _check_against_oracle(ops.elu, _where_elu, *data)


@settings(max_examples=150, deadline=None)
@given(data=inputs(), slope=st.sampled_from(SLOPES))
def test_leaky_relu_is_the_where_form(data, slope):
    _check_against_oracle(ops.leaky_relu, _where_leaky_relu, *data, slope)


def test_elu_backward_is_finite_at_infinity():
    """``(out + 1) * 0`` would be NaN at ``x = +inf``; ``min(out, 0)`` keeps it 1."""
    t = Tensor(np.array([np.inf, -np.inf, 0.0], np.float32), requires_grad=True)
    ops.elu(t).backward(np.ones(3, np.float32))
    np.testing.assert_array_equal(t.grad, np.array([1.0, 0.0, 1.0], np.float32))


def _elu_grad_from_input(x, out, grad):
    """ELU's gradient as it was computed before, from the input's sign: ``[x > 0]``."""
    positive = x > 0.0
    local = np.minimum(out, 0.0)
    local += 1.0
    local *= ~positive
    local += positive
    local *= grad
    return local


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_elu_gradient_from_its_output_has_the_bits_of_the_one_from_its_input(layout):
    """``[out > 0]`` is ``[x > 0]`` for every input, so reading only ``out`` moves no bit."""
    specials = np.array(
        [np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, _TINY / 4, -_TINY / 4, _TINY, -_TINY,
         1e-9, -1e-9, -1e-8, -2.0**-25, -2.0**-24, 2.0**-149, -(2.0**-149)],
        np.float32,
    )
    rng = np.random.default_rng(0)
    x = np.concatenate([specials, rng.standard_normal(64).astype(np.float32)])
    # Negatives whose ``exp`` rounds to 1: ``out`` is a zero, which must not read as positive.
    with np.errstate(all="ignore"):
        assert (np.exp(-np.abs(x[10:16])) == np.float32(1.0)).any()
    if layout == "strided":
        x = np.repeat(x, 2)[::2]
    grad = rng.standard_normal(x.shape).astype(np.float32)
    t = Tensor(x, requires_grad=True)
    with np.errstate(all="ignore"):
        out = ops.elu(t)
        out.backward(grad)
        want = _elu_grad_from_input(x, out.data, grad)
    assert t.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "fn",
    [lambda t: ops.elu(t), lambda t: ops.leaky_relu(t, 0.2), lambda t: ops.leaky_relu(t, 0.01)],
)
def test_gradcheck_still_passes(fn):
    x = np.random.default_rng(7).normal(size=(5, 4)).astype(np.float32)
    x[np.abs(x) < 0.05] = 0.5  # central differences straddle the kink at 0
    assert gradcheck(fn, [x])
