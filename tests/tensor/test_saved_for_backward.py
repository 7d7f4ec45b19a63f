"""The autograd tape keeps only what backward reads.

Each op's output carries one grad node whose backward closure holds the
arrays, shapes and flags its gradient formula reads — never a Tensor, whose
``.data`` it would keep alive whether the formula reads it or not.  The
walk frees each node once it has propagated, so activations are collected
while backward runs, as PyTorch frees saved tensors.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from repro.datasets import enzymes
from repro.models import graph_config
from repro.nn import cross_entropy
from repro.tensor import (
    CSRGraph,
    Tensor,
    batch_norm,
    edge_softmax,
    gather_mul_sum,
    gsddmm,
    gspmm,
    index_rows,
    nll_loss,
    ops,
    scatter_sum,
)
from repro.tensor.ops_scatter import GATHER_MUL_BLOCK
from repro.tensor.ops_sparse import GSDDMM_OPS
from tests.tensor.test_dead_gradients import OPERANDS

SRC = np.array([0, 1, 2, 3, 4, 0, 2])
DST = np.array([1, 2, 3, 4, 0, 0, 1])


def _live(*shapes):
    rng = np.random.default_rng(0)
    return [Tensor(rng.standard_normal(s) + 3.0, requires_grad=True) for s in shapes]


def _graph():
    return CSRGraph.from_edge_index(SRC, DST, 5, 5)


def _gsddmm(op):
    lhs, rhs = _live((5, 2, 4), (5, 2, 4))
    return gsddmm(_graph(), op, lhs, None if op == "copy_lhs" else rhs)


def _batch_norm():
    x, gamma, beta = _live((6, 3), (3,), (3,))
    return batch_norm(x, gamma, beta, np.zeros(3, np.float32), np.ones(3, np.float32), True)


#: One op output built from operands that all require grad.
BUILDERS = {
    **{op.__name__: (lambda op=op: op(*_live(*OPERANDS[op]))) for op in OPERANDS},
    **{
        f"gspmm_{reduce}": (lambda reduce=reduce: gspmm(_graph(), *_live((5, 3), (7, 1)), reduce))
        for reduce in ("sum", "mean", "max")
    },
    **{f"gsddmm_{op}": (lambda op=op: _gsddmm(op)) for op in GSDDMM_OPS},
    "edge_softmax": lambda: edge_softmax(_graph(), *_live((7, 2))),
    "batch_norm": _batch_norm,
    "nll_loss": lambda: nll_loss(*_live((4, 3)), np.array([0, 2, 1, 0])),
    # The ops that held a whole input to read its shape or size.
    "scatter_sum": lambda: scatter_sum(*_live((7, 3)), DST, 5),
    "sum": lambda: ops.sum(*_live((4, 3)), axis=0),
    "index_rows": lambda: index_rows(*_live((5, 3)), SRC),
    "gather_mul_sum": lambda: (lambda x, w: gather_mul_sum(x, SRC, w, DST, 5)[0])(*_live((5, 2, 3), (7, 2))),
    "add": lambda: ops.add(*_live((4, 3), (1, 3))),
    "sub": lambda: ops.sub(*_live((4, 3), (1, 3))),
    "reshape": lambda: ops.reshape(*_live((4, 3)), (12,)),
}


def _holds_tensor(value) -> bool:
    if isinstance(value, Tensor):
        return True
    if isinstance(value, (tuple, list)):
        return any(_holds_tensor(item) for item in value)
    return False


@pytest.mark.parametrize("name", BUILDERS)
def test_no_closure_cell_holds_a_tensor(name):
    backward = BUILDERS[name]()._node.backward
    cells = dict(zip(backward.__code__.co_freevars, backward.__closure__ or ()))
    assert [var for var, cell in cells.items() if _holds_tensor(cell.cell_contents)] == []


@pytest.mark.parametrize("op", [ops.mul, ops.matmul, ops.div], ids=lambda op: op.__name__)
def test_an_operand_is_saved_only_for_a_live_other_operand(op):
    """``x`` is read only by ``y``'s gradient: with ``y`` constant it is not kept."""
    x = Tensor(np.full((3, 3), 2.0), requires_grad=True)
    y = Tensor(np.full((3, 3), 4.0))
    backward = op(x, y)._node.backward
    saved = [cell.cell_contents for cell in backward.__closure__]
    assert not any(value is x or value is x.data for value in saved)


def test_a_second_backward_through_a_freed_graph_raises():
    (a,) = _live((3,))
    b = a * 2.0
    b.sum().backward()
    with pytest.raises(RuntimeError, match="second time"):
        (b * 3.0).sum().backward()


def test_elu_keeps_its_inputs_charges_and_not_its_input(fresh_device):
    """ELU's backward reads only its output; the device still pays for its input until it runs."""
    (a,) = _live((6, 2, 4))
    b = Tensor(np.ones((6, 2, 4), np.float32))
    charged = fresh_device.memory.current
    hidden = ops.add(a, b)  # saves shapes only
    view = hidden.reshape(6, 8)  # GAT's ELU input: a view, charged apart from its base
    arrays = [weakref.ref(view.data), weakref.ref(hidden.data)]
    out = ops.elu(view)
    del hidden, view
    assert [ref() for ref in arrays] == [None, None], "the closure kept its input array"
    # The view's charge and its base's, beside the output.
    assert fresh_device.memory.current - charged == 3 * out.nbytes
    out.backward(np.ones(out.shape, np.float32))
    assert fresh_device.memory.current - charged == out.nbytes + a.grad.nbytes


def test_pygx_gat_step_frees_activations_while_backward_runs_and_never_holds_edge_features(monkeypatch):
    from repro.device import Device
    from repro.pygx import Batch, Data, build_model

    graphs = enzymes(seed=0, num_graphs=24).graphs
    batch = Batch.from_data_list([Data.from_sample(g) for g in graphs])
    model = build_model(graph_config("gat", in_dim=18, n_classes=6), np.random.default_rng(0))
    n_edges = batch.edge_index.shape[1]
    edge_bytes = n_edges * model.conv1.heads * model.conv1.head_dim * 4  # one (E, H, D) float32 array
    assert n_edges > 3 * GATHER_MUL_BLOCK, "a block would be the whole edge set"

    activations = []
    for module in (model.conv1.fc, model.conv1):
        forward = module.forward

        def spy_forward(*args, forward=forward):
            out = forward(*args)
            activations.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(module, "forward", spy_forward)

    # The largest live host allocation at every launch of the step.
    largest, launch = [], Device.launch

    def spy_launch(device, *args, **kwargs):
        largest.append(max(trace.size for trace in tracemalloc.take_snapshot().traces))
        return launch(device, *args, **kwargs)

    monkeypatch.setattr(Device, "launch", spy_launch)
    alive_at_hook = []
    for param in model.parameters():
        param.register_post_accumulate_grad_hook(
            lambda _: alive_at_hook.append([ref() is not None for ref in activations])
        )

    tracemalloc.start()
    try:
        loss = cross_entropy(model(batch), batch.y)
        assert len(activations) == 2
        assert all(ref() is not None for ref in activations)  # saved for backward
        loss.backward()
    finally:
        tracemalloc.stop()
    assert alive_at_hook[-1] == [False, False]
    # Neither pass builds per-edge features: not the gathered rows, the
    # messages, nor either's gradient.
    assert len(largest) > 100 and max(largest) < edge_bytes / 2, (max(largest), edge_bytes)
