"""Host kernels that were rewritten for speed keep the bits of the forms they replaced.

Each reference here is the replaced form itself, kept as the oracle:

* GSpMM with per-head ``(E, H, 1)`` weights over ``(N, H, D)`` features
  used to run one :func:`csr_product` per head over head-major copies and
  write each head's result into a strided slice.  It now runs one call over
  the graph's head expansion.  Forward, the features' gradient and the
  weight's gradient must be bit-equal, and the simulated pool must see the
  same ``current`` and ``peak`` (a result that is a view of a differently
  shaped buffer is charged differently).
* ``segment_sum`` used to build the whole ``(N + 1, F)`` float64 prefix with
  one ``np.cumsum``; it now builds it a block at a time.
"""

import numpy as np
import pytest

from repro.device import Device, use_device
from repro.tensor import CSRGraph, Tensor, gspmm, ops, ops_sparse, segment_sum
from repro.tensor._reduce import csr_product


def per_head_loop(graph, w_sorted, feat, num_rows, transpose):
    """The replaced form: one ``csr_product`` per head over head-major copies."""
    heads = w_sorted.shape[1]
    w_heads = np.ascontiguousarray(w_sorted[:, :, 0].T)
    feat_heads = np.ascontiguousarray(feat.transpose(1, 0, 2), dtype=np.float32)
    out = np.empty((num_rows, heads, feat.shape[2]), dtype=np.float32)
    for h in range(heads):
        out[:, h] = csr_product(
            graph.indptr, graph.indices, w_heads[h], feat_heads[h], num_rows, transpose
        )
    return out


#: ``name -> (src, dst, num_src, num_dst, heads)``.
HEAD_GRAPHS = {
    "zero_edges": ([], [], 4, 4, 3),
    "isolated_nodes": ([1, 2, 4, 4], [2, 4, 1, 2], 6, 6, 4),
    "duplicate_edges": ([0, 0, 0, 1, 1, 2], [2, 2, 2, 0, 0, 1], 3, 3, 2),
    "self_loops": ([0, 1, 2, 2, 3], [0, 1, 2, 2, 1], 4, 4, 3),
    "one_head": ([0, 1, 2, 3, 0], [1, 2, 3, 0, 0], 4, 4, 1),
    "more_sources": ([0, 5, 6, 2, 6, 1], [0, 0, 1, 2, 2, 1], 7, 3, 2),
    "more_destinations": ([0, 1, 1, 0], [5, 0, 5, 2], 2, 6, 3),
    "random": (None, None, 40, 30, 4),
}


def _run(name, reduce):
    """Output, gradients, pool ``current`` / ``peak`` and clock of one GSpMM layer on a fresh device."""
    src, dst, num_src, num_dst, heads = HEAD_GRAPHS[name]
    rng = np.random.default_rng(7)
    if src is None:
        src, dst = rng.integers(0, num_src, 300), rng.integers(0, num_dst, 300)
    dim = 5
    with use_device(Device()) as device:
        graph = CSRGraph.from_edge_index(np.array(src, int), np.array(dst, int), num_src, num_dst)
        x = Tensor(rng.standard_normal((num_src, heads, dim)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((len(src), heads, 1)).astype(np.float32), requires_grad=True)
        out = gspmm(graph, x, w, reduce)
        result = (out.data.tobytes(), out.shape)
        # As in GAT, the heads are flattened and an activation saves its
        # input's charges, found through the view's bases: a result that is
        # itself a view would let its charge go with its Tensor.
        out = ops.elu(ops.reshape(out, (num_dst, heads * dim)))
        forward_memory = (device.memory.current, device.memory.peak)
        out.backward(rng.standard_normal(out.shape).astype(np.float32))
        return {
            "out": result,
            "x.grad": x.grad.tobytes(),
            "w.grad": w.grad.tobytes(),
            "forward_memory": forward_memory,
            "memory": (device.memory.current, device.memory.peak),
            "clock": device.clock.elapsed,
        }


@pytest.mark.parametrize("reduce", ["sum", "mean"])
@pytest.mark.parametrize("name", HEAD_GRAPHS)
def test_per_head_gspmm_matches_one_product_per_head(monkeypatch, name, reduce):
    fused = _run(name, reduce)
    monkeypatch.setattr(ops_sparse, "_per_head_product", per_head_loop)
    assert fused == _run(name, reduce)


def test_the_head_expansion_is_built_once_per_head_count(fresh_device):
    graph = CSRGraph.from_edge_index(np.array([0, 1, 2]), np.array([1, 2, 0]), 3, 3)
    assert graph.head_expansion(4) is graph.head_expansion(4)
    assert graph.head_expansion(2) is not graph.head_expansion(4)
    # Not a charged format: the pool saw only the graph's own arrays.
    charged = fresh_device.memory.current
    graph.head_expansion(8)
    assert fresh_device.memory.current == charged


def full_prefix_segment_sum(x, offsets):
    """The replaced form: one float64 ``cumsum`` over every row."""
    csum = np.zeros((len(x) + 1,) + x.shape[1:], dtype=np.float64)
    np.cumsum(x, axis=0, dtype=np.float64, out=csum[1:])
    return (csum[offsets[1:]] - csum[offsets[:-1]]).astype(np.float32)


#: ``name -> (rows, trailing shape, segment offsets strictly inside (0, rows))``.
#: A block holds 2**16 elements, so 2**16 rows of one column is one block.
SEGMENT_CASES = {
    "no_rows": (0, (3,), []),
    "one_column": (50, (1,), [1, 10, 10, 30]),
    "heads_and_features": (200, (4, 8), [1, 99, 150]),
    "straddling_blocks": (3 * 2**16 + 5, (1,), [2**16 - 3, 2**16 + 3, 2 * 2**16, 3 * 2**16 + 1]),
    "straddling_wide_blocks": (2**12 + 7, (16, 2), [2**11 - 1, 2**11 + 1, 2**12]),
}


@pytest.mark.parametrize("name", SEGMENT_CASES)
def test_segment_sum_matches_the_full_float64_prefix(fresh_device, name):
    rows, trailing, inner = SEGMENT_CASES[name]
    x = np.random.default_rng(3).standard_normal((rows,) + trailing).astype(np.float32) * 100
    if rows:
        x[0] = -0.0  # one cumsum keeps it: a segment of row 0 alone sums to -0.0
    # Empty leading and trailing segments around the inner ones.
    offsets = np.array([0, 0] + inner + [rows, rows], dtype=np.int64)
    out = segment_sum(Tensor(x), offsets)
    expected = full_prefix_segment_sum(x, offsets)
    assert out.shape == expected.shape
    assert out.data.tobytes() == expected.tobytes()
