"""``gather_mul`` is charged as the chain it replaces, and saves a recipe.

``gather_mul(x, index, w)`` must be the chain
``ops.mul(index_rows(x, index), w.reshape(w.shape + (1,)))`` to the device:
the same output and gradients bit for bit, the same launch records (name,
FLOPs, bytes and the pool's ``current`` at each launch) and the same pool
alloc / free sequence and peak — eagerly, under ``CompiledStep`` capture and
under replay.  Only what the product's node saves differs: ``(x.data,
index)`` and the gathered rows' charge, never the rows themselves.
"""

import weakref

import numpy as np
import pytest

from repro.compile import CompiledStep
from repro.device import Device, use_device
from repro.device.memory import MemoryPool
from repro.tensor import Tensor, gather_mul, gradcheck, index_rows, no_grad, ops, ops_scatter
from repro.tensor.ops_scatter import GATHER_MUL_BLOCK


def chain(x, index, weight):
    return ops.mul(index_rows(x, index), weight.reshape(weight.shape + (1,)))


def _graph(name):
    """``(num_nodes, src, H, D)`` of one adversarial input."""
    rng = np.random.default_rng(len(name))
    if name == "zero_edges":
        return 4, np.array([], np.int64), 2, 3
    if name == "isolated_nodes":
        return 9, np.array([0, 2, 2, 5]), 2, 3
    if name == "duplicates_and_self_loops":
        return 3, np.array([0, 0, 1, 1, 1, 2, 2, 0]), 2, 3
    if name == "one_head":
        return 6, rng.integers(0, 6, 40), 1, 5
    if name == "one_feature":
        return 6, rng.integers(0, 6, 40), 3, 1
    edges = {"block_minus_one": -1, "block": 0, "block_plus_one": 1}[name] + 2 * GATHER_MUL_BLOCK
    return 50, rng.integers(0, 50, edges), 3, 4


GRAPHS = [
    "zero_edges", "isolated_nodes", "duplicates_and_self_loops", "one_head", "one_feature",
    "block_minus_one", "block", "block_plus_one",
]
#: Which of ``(x, weight)`` need a gradient; ``no_grad`` runs the forward alone.
GRADS = {"both": (True, True), "weight_only": (False, True), "x_only": (True, False), "no_grad": None}


def _inputs(graph):
    num_nodes, src, heads, dim = _graph(graph)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((num_nodes, heads, dim)).astype(np.float32)
    # Signed zeros: a one-wide product keeps -0.0, a sum starts from +0.0.
    x[::2, :, ::2] = 0.0
    weight = rng.uniform(-1.0, 2.0, (len(src), heads)).astype(np.float32)
    seed = rng.standard_normal((len(src), heads, dim)).astype(np.float32)
    return x, src, weight, seed


def _step(op, arrays, grads):
    """One forward (and backward) of ``op``; what it computed, bit for bit."""
    x_arr, src, w_arr, seed = arrays
    needs = grads or (False, False)
    x = Tensor(x_arr, requires_grad=needs[0])
    weight = Tensor(w_arr, requires_grad=needs[1])
    if grads is None:
        with no_grad():
            out = op(x, src, weight)
        return out.data.tobytes(), None, None
    out = op(x, src, weight)
    data = out.data.tobytes()
    ops.mul(out, Tensor(seed)).sum().backward()
    return data, *(None if t.grad is None else t.grad.tobytes() for t in (x, weight))


def _observe(monkeypatch, run):
    """What ``run()`` returned, launched and asked of the pool, on a fresh device."""
    events = []
    alloc, free = MemoryPool.alloc, MemoryPool.free
    monkeypatch.setattr(MemoryPool, "alloc", lambda pool, n: (events.append(("alloc", n)), alloc(pool, n))[1])
    monkeypatch.setattr(MemoryPool, "free", lambda pool, n: (events.append(("free", n)), free(pool, n))[1])
    device = Device()
    device.profiler.enabled = True
    with use_device(device):
        result = run()
    monkeypatch.undo()
    records = [(r.name, r.flops, r.bytes_moved, r.memory) for r in device.profiler.records]
    return result, records, events, device.memory.peak, device.memory.current, device.clock.elapsed.hex()


def _eager(op, arrays, grads):
    return lambda: _step(op, arrays, grads)


def _compiled(op, arrays, grads):
    """Capture on the first call, replay on the second; both calls' results."""
    def run():
        step = CompiledStep(lambda: _step(op, arrays, grads))
        return step(), step(), repr(step.stats)

    return run


@pytest.mark.parametrize("mode", [_eager, _compiled], ids=["eager", "capture_and_replay"])
@pytest.mark.parametrize("grads", GRADS.values(), ids=GRADS)
@pytest.mark.parametrize("graph", GRAPHS)
def test_gather_mul_is_charged_as_the_chain(monkeypatch, graph, grads, mode):
    arrays = _inputs(graph)
    fused = _observe(monkeypatch, mode(gather_mul, arrays, grads))
    reference = _observe(monkeypatch, mode(chain, arrays, grads))
    assert fused[0] == reference[0], "output or gradients moved"
    assert len(fused[1]) == len(reference[1]) > 0
    assert fused[1] == reference[1], "launch records moved"
    assert fused[2] == reference[2], "pool alloc / free sequence moved"
    assert fused[3:] == reference[3:], "pool peak, end or clock moved"


def test_the_compiled_run_replays():
    step = CompiledStep(lambda: _step(gather_mul, _inputs("isolated_nodes"), GRADS["both"]))
    step(), step()
    assert (step.stats.captures, step.stats.replays, step.stats.guard_failures) == (1, 1, 0)


def test_gradcheck():
    num_nodes, src, heads, dim = _graph("duplicates_and_self_loops")
    rng = np.random.default_rng(0)
    x = rng.standard_normal((num_nodes, heads, dim))
    weight = rng.uniform(0.5, 1.5, (len(src), heads))
    assert gradcheck(lambda x, w: gather_mul(x, src, w), [x, weight])


def test_a_bad_weight_or_index_is_refused_before_any_launch(fresh_device):
    x = Tensor(np.ones((4, 2, 3), np.float32))
    with pytest.raises(ValueError, match=r"weight must have shape \(3, 2\)"):
        gather_mul(x, np.array([0, 1, 2]), Tensor(np.ones((3, 2, 1), np.float32)))
    with pytest.raises(IndexError, match="out of range for 4 rows"):
        gather_mul(x, np.array([0, -1, 2]), Tensor(np.ones((3, 2), np.float32)))
    assert fresh_device.clock.elapsed == 0.0


def test_the_rows_are_freed_on_the_host_and_charged_until_backward(monkeypatch, fresh_device):
    num_nodes, src, heads, dim = _graph("block_plus_one")
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((num_nodes, heads, dim)).astype(np.float32), requires_grad=True)
    weight = Tensor(rng.uniform(0.5, 1.5, (len(src), heads)).astype(np.float32), requires_grad=True)
    rows = []

    def spy(x, index):
        out = index_rows(x, index)
        rows.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(ops_scatter, "index_rows", spy)
    charged = fresh_device.memory.current
    out = gather_mul(x, src, weight)
    assert rows[0]() is None, "the gathered rows outlived the forward"
    # Still charged: the output, the weight's (E, H, 1) view and the gathered rows.
    assert fresh_device.memory.current - charged == 2 * out.nbytes + weight.nbytes
    out.sum().backward()
    # The rows and the view are freed with the node; the leaves' gradients are charged.
    assert fresh_device.memory.current - charged == out.nbytes + x.nbytes + weight.nbytes
