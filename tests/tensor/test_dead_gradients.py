"""``matmul`` and ``mul`` skip the gradient of a parent nobody differentiates.

The skip is host work only (``grad @ W.T`` for the constant Cora input was
178 MB a ``train_fullgraph`` lap): the live gradient is the same array as
before, and every kernel the backward pass charges — including the
``grad_accumulate`` of a constant consumed twice — stays where
``tests/fixtures/dead_gradients.json`` recorded it before the skip existed.
"""

import json

import numpy as np
import pytest

from repro.tensor import Tensor, gradcheck, ops
from tests.fixtures.record_dead_gradients import CASES, FIXTURE, run

PINNED = json.loads(FIXTURE.read_text())

#: op -> operand shapes (``mul`` broadcasts a GCN-style ``(N, 1)`` norm).
OPERANDS = {ops.matmul: ((5, 4), (4, 3)), ops.mul: ((5, 4), (5, 1))}


def _parent_grads(op, live):
    """The output node's ``backward(g)`` with ``requires_grad`` set on the ``live`` positions."""
    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal(shape) for shape in OPERANDS[op]]
    operands = [Tensor(a, requires_grad=i in live) for i, a in enumerate(arrays)]
    out = op(*operands)
    return out._node.backward(np.ones_like(out.data))


@pytest.mark.parametrize("op", OPERANDS, ids=lambda op: op.__name__)
@pytest.mark.parametrize("live", [0, 1])
def test_only_the_live_gradient_is_computed(op, live):
    both = _parent_grads(op, {0, 1})
    one = _parent_grads(op, {live})
    assert one[1 - live] is None
    assert one[live].dtype == both[live].dtype
    assert np.array_equal(one[live], both[live])


@pytest.mark.parametrize("op", OPERANDS, ids=lambda op: op.__name__)
@pytest.mark.parametrize("live", [0, 1])
def test_gradcheck_beside_a_constant(op, live):
    rng = np.random.default_rng(1)
    arrays = [rng.standard_normal(shape).astype(np.float32) for shape in OPERANDS[op]]

    def fn(variable):
        operands = [Tensor(a) for a in arrays]
        operands[live] = variable
        return op(*operands)

    assert gradcheck(fn, [arrays[live]])


def test_fixture_pins_an_accumulate_per_tensor_consumed_twice():
    """Sizes of the ``grad_accumulate`` launches: constants (x 20, norm 5) and live (v 12, w 20)."""
    accumulated = {
        case: [
            int(float.fromhex(launch.split()[1]))
            for launch in PINNED[case]
            if launch.startswith("grad_accumulate ")
        ]
        for case in CASES
    }
    assert accumulated == {
        "norm_on_both_sides": [5],
        "input_into_two_products": [20, 12],
        "product_plus_residual": [20, 12],
        "product_over_residual": [20, 20],
        "constant_used_once": [],
    }


@pytest.mark.parametrize("case", CASES)
def test_launches_match_the_commit_that_computed_every_gradient(case):
    assert run(case) == PINNED[case]


def test_constants_end_without_a_gradient():
    x, w = Tensor(np.ones((3, 2))), Tensor(np.ones((2, 2)), requires_grad=True)
    ops.add(ops.matmul(x, w), ops.matmul(x, w)).sum().backward()
    assert x.grad is None
    assert np.array_equal(w.grad, np.full((2, 2), 6.0, dtype=np.float32))
