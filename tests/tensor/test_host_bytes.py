"""The host holds only the bytes an op computes with.

The simulated pool charges what the modelled framework would allocate; the
host should not pay for those bytes as well when nothing reads them.  Each
case measures host allocations with ``tracemalloc`` and, where a charge is
involved, checks that the simulated pool still sees the full request.
"""

import tracemalloc

import numpy as np
import pytest

from repro._random import BLOCK, random_at
from repro.datasets import cora
from repro.tensor import CSRGraph, Tensor, gather_mul_sum, gspmm, ops, scatter_mean, segment_sum
from repro.tensor._declared import DeclaredTensor, sparse_rows

_F32 = 4


def _traced_peak(fn):
    """``(result, bytes)``: what ``fn()`` returns and the most it had allocated at once."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - before


def test_gspmm_charges_its_workspace_without_the_host_holding_it(fresh_device):
    n, e, feat = 1024, 65536, 16
    workspace = 2 * e * feat * _F32
    assert workspace >= 8 * 2**20
    rng = np.random.default_rng(0)
    graph = CSRGraph.from_edge_index(rng.integers(0, n, e), rng.integers(0, n, e), n, n)
    x = Tensor(rng.standard_normal((n, feat)).astype(np.float32), requires_grad=True)
    charged_before = fresh_device.memory.current

    out, host = _traced_peak(lambda: gspmm(graph, x))

    assert host < workspace / 8, f"the host allocated {host} bytes for a {workspace}-byte workspace"
    # The pool is charged what it always was: the output plus the modelled workspace.
    assert fresh_device.memory.current - charged_before == out.data.nbytes + workspace
    assert fresh_device.memory.peak >= charged_before + workspace
    del out
    assert fresh_device.memory.current == charged_before, "the workspace outlived its closure"


def _closure_arrays(tensor):
    backward = tensor._node.backward
    return [cell.cell_contents for cell in backward.__closure__ or ()
            if isinstance(cell.cell_contents, np.ndarray)]


def test_a_recorded_dropout_keeps_a_bool_mask_not_a_float32_one():
    x = Tensor(np.ones((300, 70), np.float32), requires_grad=True)
    out = ops.dropout(x, 0.5, training=True, rng=np.random.default_rng(0))
    saved = _closure_arrays(out)
    assert not [a for a in saved if a.dtype == np.float32 and a.size == x.size]
    assert [a.dtype for a in saved if a.size == x.size] == [np.dtype(bool)]


def test_an_unrecorded_dropout_allocates_its_output_and_one_block():
    x = Tensor(np.ones((2708, 1433), np.float32))  # a constant: backward never reads a mask
    out, host = _traced_peak(lambda: ops.dropout(x, 0.5, training=True, rng=np.random.default_rng(0)))
    assert out._node is None
    # The float64 draw block, one bool block and slack; no full-size mask.
    assert host <= out.data.nbytes + 9 * BLOCK + 2**18, host


@pytest.mark.parametrize(
    "op, products",
    # div's gradient of the divisor holds one more full-size temporary.
    [(ops.mul, 1), (ops.div, 2)],
    ids=["mul", "div"],
)
def test_a_broadcast_operands_gradient_is_reduced_before_the_other_is_allocated(op, products):
    e, h, d = 20000, 4, 16
    rng = np.random.default_rng(0)
    messages = Tensor(rng.standard_normal((e, h, d)).astype(np.float32), requires_grad=True)
    attention = Tensor(rng.uniform(1.0, 2.0, (e, h, 1)).astype(np.float32), requires_grad=True)
    out = op(messages, attention)
    grad = np.ones(out.shape, np.float32)
    backward = out._node.backward

    (g_messages, g_attention), host = _traced_peak(lambda: backward(grad))

    assert g_messages.shape == (e, h, d) and g_attention.shape == (e, h, 1)
    product = e * h * d * _F32
    # On top of the incoming gradient: the full-size products the formula
    # needs at once, the reduced gradient and slack — the broadcast operand's
    # product is gone before the other operand's gradient is allocated.
    assert host <= products * product + e * h * _F32 + 2**16, host


def test_gather_mul_sum_never_builds_an_edge_feature_array(fresh_device):
    n, e, h, d = 300, 12000, 8, 32
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((n, h, d)).astype(np.float32), requires_grad=True)
    weight = Tensor(rng.uniform(0.5, 1.5, (e, h)).astype(np.float32), requires_grad=True)
    src, dst = rng.integers(0, n, e), rng.integers(0, n, e)
    seed = Tensor(rng.standard_normal((n, h, d)).astype(np.float32))
    edge_bytes = e * h * d * _F32  # one (E, H, D) float32 array: 12 MB
    charged_before = fresh_device.memory.current

    def step():
        out, product = gather_mul_sum(x, src, weight, dst, n)
        charged = fresh_device.memory.current - charged_before
        ops.mul(out, seed).sum().backward()
        return out, product, charged

    (out, product, charged), host = _traced_peak(step)

    # Forward and backward together: blocks, the output and the gradients.
    assert host < edge_bytes / 2, host
    # The pool is charged what the chain allocated: the rows and their
    # product, beside the output and the weight's (E, H, 1) view.
    assert charged == out.nbytes + weight.nbytes + 2 * edge_bytes
    assert product.nbytes == edge_bytes and x.grad is not None and weight.grad is not None


def test_elus_forward_allocates_no_full_size_temporary(fresh_device):
    x = np.random.default_rng(0).standard_normal((1000, 1000)).astype(np.float32)
    x[:4, :4] = [[np.inf, -np.inf, np.nan, -0.0]] * 4
    out, host = _traced_peak(lambda: ops.elu(Tensor(x)))

    # The output, then at most a byte per element (what a bool mask would
    # cost) and slack: no full-size float32 ``max(x, 0)`` beside the output.
    assert host <= out.data.nbytes + x.size + 2**16, host
    select_form = np.where(x > 0.0, x, np.exp(np.minimum(x, 0.0)) - 1.0)
    assert out.data.tobytes() == select_form.tobytes()


def test_leaky_relus_forward_allocates_no_full_size_temporary(fresh_device):
    x = np.random.default_rng(0).standard_normal((1000, 1000)).astype(np.float32)
    x[:4, :4] = [[np.inf, -np.inf, np.nan, -0.0]] * 4
    out, host = _traced_peak(lambda: ops.leaky_relu(Tensor(x), 0.2))

    # As for ELU: the output, at most a byte per element and slack.
    assert host <= out.data.nbytes + x.size + 2**16, host
    # Bit-equal to adding max(x, 0) over the whole array at once.
    whole = np.minimum(x, 0.0)
    whole *= 0.2
    whole += np.maximum(x, 0.0)
    assert out.data.tobytes() == whole.tobytes()


def test_segment_sum_builds_its_float64_prefix_a_block_at_a_time(fresh_device):
    n, feat = 100000, 16
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, feat)).astype(np.float32)
    offsets = np.r_[0, np.sort(rng.integers(0, n + 1, 63)), n]
    out, host = _traced_peak(lambda: segment_sum(Tensor(x), offsets))

    # One whole (N + 1, F) float64 prefix is 12.8 MB; the blocks stay far below it.
    prefix = (n + 1) * feat * 8
    assert host < prefix / 4, host
    csum = np.zeros((n + 1, feat), np.float64)
    np.cumsum(x, axis=0, dtype=np.float64, out=csum[1:])
    assert out.data.tobytes() == (csum[offsets[1:]] - csum[offsets[:-1]]).astype(np.float32).tobytes()


def test_a_per_head_gspmm_forward_makes_no_head_major_copy_of_the_features(fresh_device):
    n, e, h, d = 2000, 4000, 8, 64
    rng = np.random.default_rng(0)
    graph = CSRGraph.from_edge_index(rng.integers(0, n, e), rng.integers(0, n, e), n, n)
    x = Tensor(rng.standard_normal((n, h, d)).astype(np.float32))
    weight = Tensor(rng.uniform(0.5, 1.5, (e, h, 1)).astype(np.float32))
    gspmm(graph, x, weight)  # builds and caches the graph's head expansion
    out, host = _traced_peak(lambda: gspmm(graph, x, weight))

    # The output, the CSR-ordered weights and their expanded copy, and
    # slack: the (N, H, D) features (4 MB) are read where they lie.
    assert host <= out.data.nbytes + 2 * e * h * _F32 + 2**17, host
    assert out.data.nbytes == x.data.nbytes


def test_scatter_means_gradient_is_one_edge_array(fresh_device):
    n, e, feat = 500, 100000, 16
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((e, feat)).astype(np.float32), requires_grad=True)
    index = rng.integers(0, n, e)
    out = scatter_mean(x, index, n)
    grad = rng.standard_normal(out.shape).astype(np.float32)
    backward = out._node.backward

    (g_x,), host = _traced_peak(lambda: backward(grad))

    # The gathered gradient, scaled where it lies: one (E, F) array, the
    # (E,) per-row scale and slack.
    assert host <= e * feat * _F32 + 2 * e * _F32 + 2**16, host
    count = np.maximum(np.bincount(index, minlength=n), 1).astype(np.float32)
    expected = grad[index] * (1.0 / count)[index].reshape(-1, 1)
    assert g_x.tobytes() == expected.tobytes()


def test_gspmm_forms_a_per_head_weight_gradient_a_block_at_a_time(fresh_device):
    n, e, h, d = 300, 12000, 4, 32
    rng = np.random.default_rng(0)
    graph = CSRGraph.from_edge_index(rng.integers(0, n, e), rng.integers(0, n, e), n, n)
    x = Tensor(rng.standard_normal((n, h, d)).astype(np.float32))
    weight = Tensor(rng.uniform(0.5, 1.5, (e, h, 1)).astype(np.float32), requires_grad=True)
    seed = rng.standard_normal((n, h, d)).astype(np.float32)
    out = gspmm(graph, x, weight)
    _, host = _traced_peak(lambda: ops.mul(out, Tensor(seed)).sum().backward())

    # One (E, H, D) product is 6 MB; the blocked gradient never forms one.
    edge_product = e * h * d * _F32
    assert host < edge_product / 2, host
    # Bit-equal to reducing the whole product at once.
    whole = np.zeros(weight.shape, np.float32)
    whole[graph.edge_ids] = (seed[graph.rows] * x.data[graph.indices]).sum(axis=2, keepdims=True)
    assert weight.grad.tobytes() == whole.tobytes()


#: ``name -> (op on Cora's features and a column, share of the dense output bytes the host may allocate)``.
#: Dropout keeps half the nonzeros: their CSR alone is 1/11 of the dense bytes,
#: and its temporaries take it to 1/6; a dense bool mask would be 1/4 more.
DECLARED_OUTPUTS = {
    "dropout": (lambda x, column: ops.dropout(x, 0.5, training=True, rng=np.random.default_rng(0)), 1 / 5),
    "row_scaling": (lambda x, column: ops.mul(x, column), 1 / 8),
}


@pytest.mark.parametrize("op, share", DECLARED_OUTPUTS.values(), ids=DECLARED_OUTPUTS)
def test_a_declared_output_is_charged_dense_without_the_host_writing_it(fresh_device, monkeypatch, op, share):
    features = Tensor(cora(0).graph.x)  # declared sparse, 2 708 x 1 433
    column = Tensor(np.random.default_rng(0).uniform(0.1, 1.0, (len(features), 1)).astype(np.float32))
    dense = features.nbytes
    # The draw is random_at's own (a float64 uniform per nonzero and its
    # 2**14-position chunks: 3.8 MB here), so it is taken before tracing.
    rows = sparse_rows(features.data)
    uniforms = random_at(np.random.default_rng(0), rows.jumps, rows.positions)
    monkeypatch.setattr(ops, "random_at", lambda rng, jumps, positions: uniforms)
    charged_before = fresh_device.memory.current

    out, host = _traced_peak(lambda: op(features, column))

    assert type(out) is DeclaredTensor
    assert host < dense * share, f"the host allocated {host} bytes for a {dense}-byte output"
    assert fresh_device.memory.current - charged_before == dense
    del out
    assert fresh_device.memory.current == charged_before
