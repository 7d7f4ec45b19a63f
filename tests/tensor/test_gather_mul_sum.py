"""``gather_mul_sum`` is, to the device, the three-op chain it fuses.

``gather_mul_sum(x, src, w, dst, n)`` must be ``scatter_sum(ops.mul(
index_rows(x, src), w.reshape(w.shape + (1,))), dst, n)``: the same output
and gradients bit for bit, the same launch records (name, FLOPs, bytes and
the pool's ``current`` at each launch), the same pool alloc / free sequence,
peak, end and clock — eagerly, and under ``CompiledStep`` capture then
replay with the tracer and with the pinning tracer the tracer is held to —
and, under capture, the same IR.  Only the host differs: it never builds the
chain's ``(E, H, D)`` rows or product, which exist as charges.
"""

import numpy as np
import pytest

from repro.compile import CompiledStep, compiled
from repro.compile.tracer import Tracer
from repro.device import Device, use_device
from repro.device.memory import Charge, MemoryPool
from repro.tensor import Tensor, gather_mul_sum, gradcheck, index_rows, no_grad, ops, scatter_sum
from repro.tensor.ops_scatter import GATHER_MUL_BLOCK
from tests.compile.test_capture_charges import PinningTracer


def chain(x, src, weight, dst, num_nodes):
    return scatter_sum(ops.mul(index_rows(x, src), weight.reshape(weight.shape + (1,))), dst, num_nodes)


def fused(x, src, weight, dst, num_nodes):
    # The product's charge is dropped here, where the chain drops its product.
    return gather_mul_sum(x, src, weight, dst, num_nodes)[0]


def _graph(name):
    """``(num_nodes, src, dst, H, D)`` of one adversarial input."""
    rng = np.random.default_rng(len(name))
    if name == "zero_edges":
        return 4, np.array([], np.int64), np.array([], np.int64), 2, 3
    if name == "one_edge":
        return 3, np.array([2]), np.array([0]), 2, 3
    if name == "isolated_nodes":  # nodes 4, 6, 7 and 8 send and receive nothing
        return 9, np.array([0, 2, 2, 5, 3]), np.array([1, 1, 3, 5, 0]), 2, 3
    if name == "duplicates_and_self_loops":
        return 3, np.array([0, 0, 1, 1, 1, 2, 2, 0]), np.array([0, 0, 1, 2, 1, 2, 0, 1]), 2, 3
    if name == "one_head":  # Cora's final single-head layer
        return 6, rng.integers(0, 6, 40), rng.integers(0, 6, 40), 1, 5
    if name == "one_feature":
        return 6, rng.integers(0, 6, 40), rng.integers(0, 6, 40), 3, 1
    edges = {"block_minus_one": 1023, "block": 1024, "block_plus_one": 1025, "two_blocks_plus_one": 2049}[name]
    assert GATHER_MUL_BLOCK == 1024
    return 50, rng.integers(0, 50, edges), rng.integers(0, 40, edges), 3, 4


GRAPHS = [
    "zero_edges", "one_edge", "isolated_nodes", "duplicates_and_self_loops", "one_head", "one_feature",
    "block_minus_one", "block", "block_plus_one", "two_blocks_plus_one",
]
#: Which of ``(x, weight)`` need a gradient; ``no_grad`` runs the forward alone.
GRADS = {"both": (True, True), "weight_only": (False, True), "x_only": (True, False), "no_grad": None}


def _inputs(graph):
    num_nodes, src, dst, heads, dim = _graph(graph)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((num_nodes, heads, dim)).astype(np.float32)
    # Signed zeros: a one-wide product keeps -0.0, a sum starts from +0.0.
    x[::2, :, ::2] = 0.0
    weight = rng.uniform(-1.0, 2.0, (len(src), heads)).astype(np.float32)
    seed = rng.standard_normal((num_nodes, heads, dim)).astype(np.float32)
    return x, src, weight, dst, seed


def _step(op, arrays, grads):
    """One forward (and backward) of ``op``; what it computed, bit for bit."""
    x_arr, src, w_arr, dst, seed = arrays
    needs = grads or (False, False)
    x = Tensor(x_arr, requires_grad=needs[0])
    weight = Tensor(w_arr, requires_grad=needs[1])
    if grads is None:
        with no_grad():
            out = op(x, src, weight, dst, len(seed))
        return out.data.tobytes(), None, None
    out = op(x, src, weight, dst, len(seed))
    data = out.data.tobytes()
    ops.mul(out, Tensor(seed)).sum().backward()
    return data, *(None if t.grad is None else t.grad.tobytes() for t in (x, weight))


class RecordingTracer(Tracer):
    """The tracer, keeping what each capture's IR said."""

    irs = []

    def finish(self, outputs=()):
        ir = super().finish(outputs)
        self.irs.append((
            [(n.name, n.flops, n.bytes_moved, n.out_id, n.out_shape, n.out_size, n.requires_grad, n.parent_ids)
             for n in ir.nodes],
            sorted(ir.aliases.items()), sorted(ir.output_ids), sorted(ir.constant_ids),
        ))
        return ir


def _observe(monkeypatch, run, tracer=RecordingTracer):
    """What ``run()`` returned, launched and asked of the pool on a fresh device, and the IRs it captured."""
    events = []
    alloc, free = MemoryPool.alloc, MemoryPool.free
    monkeypatch.setattr(MemoryPool, "alloc", lambda pool, n: (events.append(("alloc", n)), alloc(pool, n))[1])
    monkeypatch.setattr(MemoryPool, "free", lambda pool, n: (events.append(("free", n)), free(pool, n))[1])
    monkeypatch.setattr(compiled, "Tracer", tracer)
    RecordingTracer.irs = []
    device = Device()
    device.profiler.enabled = True
    with use_device(device):
        result = run()
    monkeypatch.undo()
    records = [(r.name, r.flops, r.bytes_moved, r.memory) for r in device.profiler.records]
    memory = (device.memory.peak, device.memory.current, device.clock.elapsed.hex())
    return {"result": result, "records": records, "events": events, "memory": memory, "irs": RecordingTracer.irs}


def _eager(op, arrays, grads):
    return lambda: _step(op, arrays, grads)


def _compiled(op, arrays, grads):
    """Capture on the first call, replay on the second; both calls' results."""
    def run():
        step = CompiledStep(lambda: _step(op, arrays, grads))
        return step(), step(), repr(step.stats)

    return run


MODES = {"eager": (_eager, None), "tracer": (_compiled, RecordingTracer), "pinning_tracer": (_compiled, PinningTracer)}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("grads", GRADS.values(), ids=GRADS)
@pytest.mark.parametrize("graph", GRAPHS)
def test_gather_mul_sum_is_the_chain_to_the_device(monkeypatch, graph, grads, mode):
    make, tracer = MODES[mode]
    arrays = _inputs(graph)
    got = _observe(monkeypatch, make(fused, arrays, grads), tracer or RecordingTracer)
    want = _observe(monkeypatch, make(chain, arrays, grads), tracer or RecordingTracer)
    assert got["result"] == want["result"], "output or gradients moved"
    assert [r[:3] for r in got["records"]] == [r[:3] for r in want["records"]], "(name, flops, bytes) moved"
    assert len(got["records"]) > 0 and got["records"] == want["records"], "pool current at a launch moved"
    assert got["events"] == want["events"], "pool alloc / free sequence moved"
    assert got["memory"] == want["memory"], "pool peak, end or clock moved"
    assert got["irs"] == want["irs"], "the captured IR moved"
    assert (len(got["irs"]) == 1) == (mode == "tracer")


def test_the_compiled_run_replays():
    step = CompiledStep(lambda: _step(fused, _inputs("isolated_nodes"), GRADS["both"]))
    step(), step()
    assert (step.stats.captures, step.stats.replays, step.stats.guard_failures) == (1, 1, 0)


def test_gradcheck():
    num_nodes, src, dst, heads, dim = _graph("duplicates_and_self_loops")
    rng = np.random.default_rng(0)
    x = rng.standard_normal((num_nodes, heads, dim))
    weight = rng.uniform(0.5, 1.5, (len(src), heads))
    assert gradcheck(lambda x, w: fused(x, src, w, dst, num_nodes), [x, weight])


def _bad_calls():
    x = Tensor(np.ones((4, 2, 3), np.float32))
    w = Tensor(np.ones((3, 2), np.float32))
    ok = np.array([0, 1, 2])
    return {
        "weight_shape": (ValueError, r"weight must have shape \(3, 2\)",
                         lambda: gather_mul_sum(x, ok, Tensor(np.ones((3, 2, 1), np.float32)), ok, 4)),
        "src_out_of_range": (IndexError, "out of range for 4 rows", lambda: gather_mul_sum(x, np.array([0, 4, 2]), w, ok, 4)),
        "src_negative": (IndexError, "out of range for 4 rows", lambda: gather_mul_sum(x, np.array([0, -1, 2]), w, ok, 4)),
        "dst_out_of_range": (IndexError, "out of range for 3 rows", lambda: gather_mul_sum(x, ok, w, np.array([0, 3, 2]), 3)),
        "dst_negative": (IndexError, "out of range for 4 rows", lambda: gather_mul_sum(x, ok, w, np.array([-2, 1, 2]), 4)),
        "dst_length": (ValueError, "length 3", lambda: gather_mul_sum(x, ok, w, np.array([0, 1]), 4)),
        "dst_float": (TypeError, "integer array", lambda: gather_mul_sum(x, ok, w, np.array([0.0, 1.0, 2.0]), 4)),
    }


@pytest.mark.parametrize("case", _bad_calls())
def test_a_bad_index_or_weight_is_refused_before_any_launch(fresh_device, case):
    fresh_device.profiler.enabled = True
    error, message, call = _bad_calls()[case]
    charged = fresh_device.memory.current
    with pytest.raises(error, match=message):
        call()
    assert fresh_device.profiler.records == [] and fresh_device.clock.elapsed == 0.0
    assert fresh_device.memory.current == charged


def test_the_rows_are_charged_until_backward_and_the_product_while_its_charge_is_held(fresh_device):
    num_nodes, src, dst, heads, dim = _graph("block_plus_one")
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((num_nodes, heads, dim)).astype(np.float32), requires_grad=True)
    weight = Tensor(rng.uniform(0.5, 1.5, (len(src), heads)).astype(np.float32), requires_grad=True)
    edge_bytes = len(src) * heads * dim * 4
    charged = fresh_device.memory.current
    out, product = gather_mul_sum(x, src, weight, dst, num_nodes)
    assert type(product) is Charge and product.nbytes == edge_bytes
    # The output, the weight's (E, H, 1) view, the rows and the product.
    assert fresh_device.memory.current - charged == out.nbytes + weight.nbytes + 2 * edge_bytes
    del product
    assert fresh_device.memory.current - charged == out.nbytes + weight.nbytes + edge_bytes
    out.sum().backward()
    # The rows and the view are freed with the node; the leaves' gradients are charged.
    assert fresh_device.memory.current - charged == out.nbytes + x.nbytes + weight.nbytes
