"""Oracle for declared-sparse inputs: dropout, row scaling and matmul on their nonzeros.

``declare_sparse`` lets ``ops.dropout``, ``ops.mul`` (scaling rows by a
non-negative finite column) and ``ops.matmul`` compute a read-only 2-D
float32 array on its CSR.  Dropout, which jumps PCG64 to the nonzeros
(``repro._random.random_at``, with its own oracle in ``test_random_at.py``),
and row scaling must stay the dense path bit for bit (same output bits, same
generator state afterwards); the product and the weight gradient are CSR
sums in storage order, so they must match the dense float32 GEMM within the
float32-epsilon bound of docs/kernels.md ("Reduction numerics").  The cases
are the matrices that break sparse code: empty rows and columns, nothing
stored, one entry, and nonzeros enough for several jump chunks, the last a
partial one.
"""

import numpy as np
import pytest

from repro._random import BLOCK
from repro.tensor import Tensor, declare_sparse, ops
from repro.tensor._declared import sparse_rows


def _bag_of_words(shape, density, seed):
    rng = np.random.default_rng(seed)
    x = (rng.random(shape) < density).astype(np.float32)
    x *= rng.uniform(0.5, 2.0, shape).astype(np.float32)
    return x


def _zero_rows_and_columns():
    x = _bag_of_words((40, 30), 0.3, 1)
    x[[0, 7, 39]] = 0.0
    x[:, [0, 12, 29]] = 0.0
    return x


def _single_nonzero():
    x = np.zeros((7, 5), np.float32)
    x[3, 2] = 1.5
    return x


#: ``name -> builder`` of a fresh array that owns its memory.
CASES = {
    "zero_rows_and_columns": _zero_rows_and_columns,
    "all_zero": lambda: np.zeros((12, 9), np.float32),
    "single_nonzero": _single_nonzero,
    "several_blocks": lambda: _bag_of_words((1100, 1000), 0.035, 2),
}
assert 2 * BLOCK < CASES["several_blocks"]().size < 3 * BLOCK


def _signed_zeros_and_non_finite():
    x = _bag_of_words((20, 10), 0.5, 3) * np.float32(-1.0)
    x[1, 1], x[2, 2], x[3, 3], x[4, 4] = -0.0, np.inf, -np.inf, np.nan
    return x


def _declared_and_copy(build):
    """A declared array and a writable, undeclared copy of it."""
    x = build()
    copy = x.copy()
    declare_sparse(x)
    return x, copy


def _stored_as_dense(rows, shape):
    out = np.zeros(shape, np.float32)
    out.reshape(-1)[rows.positions] = rows.data
    return out


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
@pytest.mark.parametrize(
    "build", [*CASES.values(), _signed_zeros_and_non_finite],
    ids=[*CASES, "signed_zeros_and_non_finite"],
)
def test_dropout_is_the_dense_path_bit_for_bit(fresh_device, build, p):
    x, copy = _declared_and_copy(build)
    sparse_rng, dense_rng = np.random.default_rng(7), np.random.default_rng(7)
    with np.errstate(invalid="ignore"):  # a dropped inf is inf * 0 on both paths
        out = ops.dropout(Tensor(x.view()), p, True, sparse_rng)
        dense = ops.dropout(Tensor(copy), p, True, dense_rng)
    assert sparse_rows(copy) is None and sparse_rows(dense.data) is None
    assert np.array_equal(out.data.view(np.uint32), dense.data.view(np.uint32))
    assert sparse_rng.bit_generator.state == dense_rng.bit_generator.state
    # The output is declared with the CSR of what it stores.
    rows = sparse_rows(out.data)
    assert not out.data.flags.writeable
    assert np.array_equal(_stored_as_dense(rows, x.shape).view(np.uint32), out.data.view(np.uint32))
    assert rows.indptr[-1] == len(rows.indices) == len(rows.data) <= len(sparse_rows(x).data)


@pytest.mark.parametrize("build", CASES.values(), ids=CASES)
def test_p_zero_and_eval_mode_return_the_input(fresh_device, build):
    x, _ = _declared_and_copy(build)
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    features = Tensor(x.view())
    assert ops.dropout(features, 0.0, True, rng) is features
    assert ops.dropout(features, 0.5, False, rng) is features
    assert rng.bit_generator.state == state


def test_an_input_that_needs_a_gradient_takes_the_dense_path(fresh_device):
    x, copy = _declared_and_copy(CASES["zero_rows_and_columns"])
    features = Tensor(x, requires_grad=True)
    out = ops.dropout(features, 0.5, True, np.random.default_rng(7))
    dense = ops.dropout(Tensor(copy, requires_grad=True), 0.5, True, np.random.default_rng(7))
    assert sparse_rows(out.data) is None
    assert np.array_equal(out.data.view(np.uint32), dense.data.view(np.uint32))
    out.backward(np.ones(x.shape, np.float32))
    assert features.grad is not None


def _assert_within_float32_bound(out, reference, lhs, rhs):
    """``|out - reference| <= 2 * k * eps32 * (|lhs| @ |rhs|)``: two float32 sums of ``k`` terms."""
    k = lhs.shape[1]
    bound = 2 * k * np.finfo(np.float32).eps * (np.abs(lhs.astype(np.float64)) @ np.abs(rhs))
    assert out.dtype == np.float32 and out.shape == reference.shape
    assert np.all(np.abs(out.astype(np.float64) - reference) <= bound)


@pytest.mark.parametrize("dropped", [False, True], ids=["eval", "after_dropout"])
@pytest.mark.parametrize("build", CASES.values(), ids=CASES)
def test_product_and_weight_gradient_match_the_dense_gemm(fresh_device, build, dropped):
    x, copy = _declared_and_copy(build)
    lhs, dense_lhs = Tensor(x.view()), Tensor(copy)
    if dropped:
        lhs = ops.dropout(lhs, 0.5, True, np.random.default_rng(7))
        dense_lhs = ops.dropout(dense_lhs, 0.5, True, np.random.default_rng(7))
    assert sparse_rows(lhs.data) is not None
    rng = np.random.default_rng(8)
    w = rng.standard_normal((x.shape[1], 16)).astype(np.float32)
    grad = rng.standard_normal((x.shape[0], 16)).astype(np.float32)
    weight = Tensor(w, requires_grad=True)
    out = ops.matmul(lhs, weight)
    out.backward(grad)
    a = dense_lhs.data
    _assert_within_float32_bound(out.data, a @ w, a, w)
    _assert_within_float32_bound(weight.grad, a.T @ grad, a.T, grad)


def test_a_full_shape_view_resolves_and_nothing_else_does():
    x, _ = _declared_and_copy(CASES["zero_rows_and_columns"])
    rows = sparse_rows(x)
    assert sparse_rows(x.view()) is rows and sparse_rows(x.view().view()) is rows
    for other in (x[1:], x[:, :5], x.T, x[::2], x.view(np.int32), x.copy()):
        assert sparse_rows(other) is None


def test_declaring_checks_the_array_and_makes_it_read_only():
    with pytest.raises(ValueError, match="2-D"):
        declare_sparse(np.zeros(6, np.float32))
    with pytest.raises(ValueError, match="2-D"):
        declare_sparse(np.zeros((2, 3, 4), np.float32))
    with pytest.raises(TypeError, match="float32"):
        declare_sparse(np.zeros((2, 3), np.float64))
    with pytest.raises(TypeError, match="float32"):
        declare_sparse([[1.0, 0.0]])
    base = np.zeros((4, 3), np.float32)
    with pytest.raises(ValueError, match="owns its memory"):
        declare_sparse(base[:2])
    declare_sparse(base)
    with pytest.raises(ValueError, match="read-only"):
        base[0, 0] = 1.0


def test_the_registry_lets_go_of_a_collected_array():
    from repro.tensor import _declared

    x = _bag_of_words((30, 20), 0.2, 4)
    declare_sparse(x)
    key = id(x)
    assert key in _declared._DECLARED
    del x
    assert key not in _declared._DECLARED


def _column(n, seed):
    """A finite non-negative column with +0.0 rows and rows whose products underflow."""
    column = np.random.default_rng(seed).uniform(0.0, 3.0, (n, 1)).astype(np.float32)
    column[::5] = 0.0
    column[1::7] = np.float32(1e-45)  # the smallest subnormal: x < 0.75 rounds to +0.0
    return column


@pytest.mark.parametrize(
    "build", [*CASES.values(), _signed_zeros_and_non_finite],
    ids=[*CASES, "signed_zeros_and_non_finite"],
)
def test_row_scaling_is_the_dense_product_and_stays_declared(fresh_device, build):
    x, copy = _declared_and_copy(build)
    column = _column(x.shape[0], 9)
    with np.errstate(invalid="ignore"):  # inf * 0 on both paths
        out = ops.mul(Tensor(x.view()), Tensor(column))
        dense = ops.mul(Tensor(copy), Tensor(column))
    assert sparse_rows(dense.data) is None
    assert np.array_equal(out.data.view(np.uint32), dense.data.view(np.uint32))
    rows = sparse_rows(out.data)
    assert rows is not None and not out.data.flags.writeable
    assert np.array_equal(_stored_as_dense(rows, x.shape).view(np.uint32), out.data.view(np.uint32))
    assert np.all(rows.data.view(np.uint32) != 0), "a +0.0 product stays stored"
    assert rows.indptr[-1] == len(rows.indices) == len(rows.data) <= len(sparse_rows(x).data)


def _with(column, row, value):
    column = column.copy()
    column[row, 0] = value
    return column


#: ``name -> (rhs, lhs needs a gradient, rhs needs a gradient)`` for the 40 x 30 case.
DENSE_SCALINGS = {
    "negative": (_with(_column(40, 9), 3, -0.5), False, False),
    "negative_zero": (_with(_column(40, 9), 3, -0.0), False, False),
    "inf": (_with(_column(40, 9), 3, np.inf), False, False),
    "nan": (_with(_column(40, 9), 3, np.nan), False, False),
    "lhs_needs_grad": (_column(40, 9), True, False),
    "rhs_needs_grad": (_column(40, 9), False, True),
    "row_vector": (_column(30, 9).T.copy(), False, False),
    "full_matrix": (np.random.default_rng(9).uniform(0.0, 3.0, (40, 30)).astype(np.float32), False, False),
}


@pytest.mark.parametrize("rhs, lhs_grad, rhs_grad", DENSE_SCALINGS.values(), ids=DENSE_SCALINGS)
def test_any_other_scaling_takes_the_dense_path(fresh_device, rhs, lhs_grad, rhs_grad):
    x, copy = _declared_and_copy(CASES["zero_rows_and_columns"])
    assert x.shape == (40, 30)
    with np.errstate(invalid="ignore"):  # inf * 0 and nan on both paths
        out = ops.mul(Tensor(x, requires_grad=lhs_grad), Tensor(rhs, requires_grad=rhs_grad))
        dense = ops.mul(Tensor(copy, requires_grad=lhs_grad), Tensor(rhs, requires_grad=rhs_grad))
    assert sparse_rows(out.data) is None
    assert np.array_equal(out.data.view(np.uint32), dense.data.view(np.uint32))
