"""A noise-free budget for what an op costs the host besides its numpy kernel.

Wall-clock timings on a shared box flip between a fast and a slow mode;
the number of Python-level calls ``cProfile`` sees does not — it repeats
exactly.  Each case below profiles one call of a warm function and holds
the count under a budget of roughly 1.15x what it measured when the budget
was set (slack for the call-count differences across CPython 3.10-3.12 and
numpy releases).  In file order the first six cases measured 12 / 26 / 20 /
21 / 50 / 84 when the budgets were set, and 20 / 49 / 147 / 150 / 214 / 212
at the commit before.  The row-scaling ``mul`` and the ``matmul`` cases
measured 29 / 32 before a declared output could reach either op, and still
do: that type check is not a call.
"""

import cProfile
import pstats

import numpy as np
import pytest

from repro.tensor import CSRGraph, Tensor, gspmm, no_grad, ops, scatter_sum
from repro.tensor._reduce import scatter_add_rows, segment_add_rows

LAUNCH_OWNER = (
    "Device.launch stays harmless: hooks return decisions and Device._charge "
    "charges them (docs/architecture.md, 'Everything meets at Device.launch, and "
    "only Device charges'), and whatever is added to the chokepoint is paid for "
    "out of this budget"
)
DISPATCH_OWNER = (
    "ROADMAP aim 1 names autograd dispatch and device accounting as layers a perf "
    "claim must account for: Tensor construction, memory tracking and make_op "
    "spend from this budget (docs/architecture.md, 'The per-op path has a call budget')"
)
KERNEL_OWNER = (
    "ROADMAP aim 1, tensor-kernel layer: repro.tensor._reduce calls the sparsetools "
    "loops directly and validates once (docs/kernels.md, 'Reduction numerics')"
)


def python_calls(fn) -> int:
    """Calls (Python and builtin) one warm ``fn()`` makes, itself excluded."""
    fn()  # fill memoised lookups and lazy imports
    profiler = cProfile.Profile()
    profiler.enable()
    fn()
    profiler.disable()
    rows = pstats.Stats(profiler).stats
    return sum(row[1] for row in rows.values()) - 2  # less fn itself and disable()


@pytest.fixture
def serve_sized():
    """A serve-sized batch: 900 edges of 64 features over 230 nodes."""
    rng = np.random.default_rng(0)
    src, dst = rng.integers(0, 230, 900), rng.integers(0, 230, 900)
    values = rng.standard_normal((900, 64)).astype(np.float32)
    indptr = np.zeros(231, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=230), out=indptr[1:])
    return src, dst, values, indptr


def test_launch_inside_a_scope_and_a_phase(fresh_device):
    with fresh_device.scope("layer"), fresh_device.clock.phase("forward"):
        calls = python_calls(lambda: fresh_device.launch("gspmm", 1e3, 1e3))
    assert calls <= 14, f"{calls} calls per Device.launch. {LAUNCH_OWNER}"


def test_add_forward_under_no_grad():
    a, b = Tensor(np.ones(1, np.float32)), Tensor(np.ones(1, np.float32))
    with no_grad():
        calls = python_calls(lambda: ops.add(a, b))
    assert calls <= 30, f"{calls} calls per elementwise op. {DISPATCH_OWNER}"


def test_row_scaling_mul_under_no_grad(serve_sized):
    # An (n, 1) column on an undeclared lhs: the shape that looks for declared rows.
    _, _, values, _ = serve_sized
    a, column = Tensor(values[:230]), Tensor(np.ones((230, 1), np.float32))
    with no_grad():
        calls = python_calls(lambda: ops.mul(a, column))
    assert calls <= 33, f"{calls} calls per row-scaling mul. {DISPATCH_OWNER}"


def test_matmul_under_no_grad(serve_sized):
    _, _, values, _ = serve_sized
    a, weight = Tensor(values[:230]), Tensor(np.ones((64, 16), np.float32))
    with no_grad():
        calls = python_calls(lambda: ops.matmul(a, weight))
    assert calls <= 37, f"{calls} calls per matmul. {DISPATCH_OWNER}"


def test_scatter_add_rows(serve_sized):
    _, dst, values, _ = serve_sized
    calls = python_calls(lambda: scatter_add_rows(values, dst, 230))
    assert calls <= 23, f"{calls} calls per scatter_add_rows. {KERNEL_OWNER}"


def test_segment_add_rows(serve_sized):
    _, _, values, indptr = serve_sized
    calls = python_calls(lambda: segment_add_rows(values, indptr))
    assert calls <= 24, f"{calls} calls per segment_add_rows. {KERNEL_OWNER}"


def test_scatter_sum_op(serve_sized):
    _, dst, values, _ = serve_sized
    messages = Tensor(values)
    calls = python_calls(lambda: scatter_sum(messages, dst, 230))
    assert calls <= 58, f"{calls} calls per scatter_sum. {KERNEL_OWNER}; {DISPATCH_OWNER}"


def test_gspmm_op(serve_sized):
    src, dst, values, _ = serve_sized
    graph = CSRGraph.from_edge_index(src, dst, 230, 230)
    x = Tensor(values[:230])
    calls = python_calls(lambda: gspmm(graph, x))
    assert calls <= 97, f"{calls} calls per gspmm. {KERNEL_OWNER}; {DISPATCH_OWNER}"
