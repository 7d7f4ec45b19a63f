"""Capture charges the device as a tracer that pinned every tensor did.

:class:`Tracer` keeps no tensor alive; the pool holds the charge of every
array it saw until the capture ends.  ``PinningTracer`` below is the tracer
that held strong references instead (every tensor it saw, and every node's
output array), which is what kept the device's charges and, with them, the
host's bytes.  It runs the three-op chain pygx GAT's ``gather_mul_sum``
fuses, whose rows and product it pinned, as the tracer did before those
became charges with no array (the fused op's own capture is held to both
tracers in ``tests/tensor/test_gather_mul_sum.py``).  Swapped into
:class:`CompiledStep`, both must charge a step alike: the launch records
(name, FLOPs, bytes, the pool's ``current``), the pool's ``current`` at
every alloc and once the capture has returned, its peak, and
``CompileStats``; and under either, a step that is gone has freed every
byte it allocated, once.  Then the host side: what the device still
charges, the host has freed; and a capture that raises leaves nothing held.
"""

import math
import weakref

import numpy as np
import pytest

from repro.compile import CompiledStep, compiled
from repro.compile.ir import GraphIR, IRNode
from repro.compile.tracer import _flatten
from repro.datasets import enzymes
from repro.device import Device, current_device, use_device
from repro.device.memory import MemoryPool
from repro.pygx.models import gat
from repro.tensor import CSRGraph, Tensor, gspmm, index_rows, ops, scatter_sum
from repro.tensor._declared import declare_sparse
from repro.train import GraphClassificationTrainer


class PinningTracer:
    """The reference: ``id()`` identities, kept stable by pinning every tensor seen."""

    def __init__(self) -> None:
        self.nodes = []
        self.aliases = {}
        self.constant_ids = set()
        self._pins = []

    def on_launch(self, name, flops, bytes_moved, scope) -> None:
        self.nodes.append(IRNode(index=len(self.nodes), name=name, scope=scope, flops=flops, bytes_moved=bytes_moved))

    def annotate_op(self, out, parents) -> None:
        node = self.annotate_interior(out, out.shape, out.requires_grad, parents)
        node.out_data = out.data

    def annotate_interior(self, out, shape, requires_grad, parents):
        """A fused op's interior output is its charge: pinned as a tensor would be."""
        node = self.nodes[-1]
        self._pins.append(out)
        self._pins.extend(parents)
        node.out_id = id(out)
        node.out_shape = tuple(shape)
        node.out_size = math.prod(shape)
        node.requires_grad = bool(requires_grad)
        node.parent_ids = tuple(id(p) for p in parents)
        return node

    def alias(self, out, source) -> None:
        self._pins += [out, source]
        self.aliases[id(out)] = id(source)

    def mark_constant(self, tensor) -> None:
        self._pins.append(tensor)
        self.constant_ids.add(id(tensor))

    def finish(self, outputs=()):
        outs = _flatten(outputs)
        self._pins.extend(outs)
        return GraphIR(self.nodes, {id(o) for o in outs}, self.aliases, self.constant_ids)

    def release(self) -> None:
        """Nothing: the pins die with the tracer, when the capture returns."""


def _chain(calls):
    """The three ops ``gather_mul_sum`` fuses, counting its calls in ``calls``."""

    def gather_mul_sum(x, src, weight, dst, num_nodes):
        calls.append(len(src))
        messages = ops.mul(index_rows(x, src), weight.reshape(weight.shape + (1,)))
        return scatter_sum(messages, dst, num_nodes), messages

    return gather_mul_sum


def _observe(monkeypatch, tracer_cls, run):
    """What ``run()`` charged on a fresh device with ``tracer_cls`` capturing."""
    monkeypatch.setattr(compiled, "Tracer", tracer_cls)
    chain_calls = []
    if tracer_cls is PinningTracer:
        monkeypatch.setattr(gat, "gather_mul_sum", _chain(chain_calls))
    device = Device()
    device.profiler.enabled = True
    at_alloc, after_capture, allocated, freed = [], [], [], []
    alloc, free, capture = MemoryPool.alloc, MemoryPool.free, CompiledStep._capture

    def alloc_spy(pool, nbytes):
        alloc(pool, nbytes)
        at_alloc.append(pool.current)
        allocated.append(nbytes)

    def free_spy(pool, nbytes):
        free(pool, nbytes)
        freed.append(nbytes)

    def capture_spy(step, device, *args):
        result = capture(step, device, *args)
        after_capture.append(device.memory.current)
        return result

    monkeypatch.setattr(MemoryPool, "alloc", alloc_spy)
    monkeypatch.setattr(MemoryPool, "free", free_spy)
    monkeypatch.setattr(CompiledStep, "_capture", capture_spy)
    with use_device(device):
        stats = run()
    monkeypatch.undo()
    return {
        "launches": [(r.name, r.flops, r.bytes_moved, r.memory) for r in device.profiler.records],
        "current_at_alloc": at_alloc,
        "after_capture": after_capture,
        "peak": device.memory.peak,
        "stats": stats,
        # Once ``run()`` has returned: what was allocated and freed, and what is left.
        "allocated": sum(allocated),
        "freed": sum(freed),
        "current": device.memory.current,
        "chain_calls": len(chain_calls),
    }


def _twice(make_step):
    """Capture the step ``make_step()`` builds, then replay it; the stats."""

    def run():
        compiled_step = CompiledStep(make_step())
        compiled_step(), compiled_step()
        return repr(compiled_step.stats)

    return run


def _epoch(framework, model):
    def run():
        trainer = GraphClassificationTrainer(
            framework, model, enzymes(0, num_graphs=20), batch_size=8, device=current_device(),
            compile=True, prefetch=True,
        )
        trainer.measure_epoch(n_epochs=1)
        return repr(trainer.compiled_step.stats)

    return run


def _params():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
    w = Tensor(rng.standard_normal((6, 5)).astype(np.float32), requires_grad=True)
    return x, w


@_twice
def _reshape_alias():
    x, w = _params()

    def step():
        w.grad = None
        loss = ops.exp(ops.matmul(x, w).reshape(10, 2)).sum()
        loss.backward()
        return loss

    return step


@_twice
def _scalar_constant():
    x, w = _params()

    def step():
        w.grad = None
        scale = Tensor(np.float32(2.0)) * 0.5 + 1.0  # folds into the plan
        loss = (ops.matmul(x, w) * scale).sum()
        loss.backward()
        return loss

    return step


@_twice
def _unused_backward():
    x, w = _params()
    graph = CSRGraph.from_edge_index(np.array([0, 1, 2, 3, 3]), np.array([1, 2, 3, 0, 1]), 4, 4)

    def step():
        w.grad = None
        hidden = ops.matmul(x, w)
        # On the tape, never differentiated: its node saves a workspace no
        # tensor owns, which the device charges until the capture ends.
        gspmm(graph, ops.exp(hidden))
        loss = ops.relu(hidden).sum()
        loss.backward()
        return loss

    return step


@_twice
def _view_of_an_unseen_array():
    x, w = _params()

    def step():
        w.grad = None
        rows = np.ones((8, 5), np.float32)
        head = Tensor(rows[:4])  # charged apart from ``rows``, which no op reads
        current_device().track(rows)
        del rows
        loss = ops.mul(ops.matmul(x, w), head).sum()
        del head
        loss.backward()  # frees ``head``, and with it ``rows``
        return loss, ops.relu(x)  # an alloc after both are gone

    return step


@_twice
def _shared_charges():
    rng = np.random.default_rng(1)
    z = Tensor(rng.standard_normal((5, 2, 3)).astype(np.float32), requires_grad=True)
    src, dst = np.array([0, 4, 4, 1, 2, 3, 0]), np.array([1, 1, 0, 3, 4, 2, 0])
    features = np.zeros((5, 6), np.float32)
    features[[0, 2, 4], [1, 3, 5]] = 1.0
    declare_sparse(features)
    x, w = Tensor(features), Tensor(rng.standard_normal((6, 2)).astype(np.float32), requires_grad=True)

    def step():
        w.grad = z.grad = None
        # Dropout of a declared input returns a DeclaredTensor, whose built
        # array shares its charge; gather_mul_sum's rows and product are charges.
        dropped = ops.dropout(x, 0.5, True, np.random.default_rng(3))
        weight = ops.sigmoid(index_rows(ops.matmul(dropped, w), src))
        loss = gat.gather_mul_sum(z, src, weight, dst, 5)[0].sum()
        loss.backward()
        return loss

    return step


CASES = {
    "pygx_gat": _epoch("pygx", "gat"),
    "dglx_gat": _epoch("dglx", "gat"),
    "pygx_gcn": _epoch("pygx", "gcn"),
    "dglx_gcn": _epoch("dglx", "gcn"),
    "reshape_alias": _reshape_alias,
    "scalar_constant": _scalar_constant,
    "unused_backward": _unused_backward,
    "view_of_an_unseen_array": _view_of_an_unseen_array,
    "shared_charges": _shared_charges,
}
STEPS = ["reshape_alias", "scalar_constant", "unused_backward", "view_of_an_unseen_array", "shared_charges"]


@pytest.mark.parametrize("case", CASES)
def test_capture_charges_as_the_pinning_tracer(monkeypatch, case):
    from repro.compile.tracer import Tracer

    held = _observe(monkeypatch, Tracer, CASES[case])
    pinned = _observe(monkeypatch, PinningTracer, CASES[case])
    assert len(held["launches"]) == len(pinned["launches"]) > 0
    assert held["after_capture"], "nothing was captured"
    assert "replays=0" not in held["stats"] and "guard_failures=0" in held["stats"]
    if case in ("pygx_gat", "shared_charges"):
        assert pinned["chain_calls"] > 0 and held["chain_calls"] == 0, "the chain was not patched in"
    for key in ("launches", "current_at_alloc", "after_capture", "peak", "stats"):
        assert held[key] == pinned[key], f"{key} moved"


@pytest.mark.parametrize("tracer", ["Tracer", "PinningTracer"])
@pytest.mark.parametrize("case", STEPS)
def test_a_step_that_is_gone_has_freed_every_byte_it_allocated_once(monkeypatch, case, tracer):
    from repro.compile.tracer import Tracer

    seen = _observe(monkeypatch, {"Tracer": Tracer, "PinningTracer": PinningTracer}[tracer], CASES[case])
    assert seen["allocated"] > 0
    assert seen["freed"] == seen["allocated"]
    assert seen["current"] == 0, "the fresh device did not end where it started"


def _events(monkeypatch, label=None):
    """Record every pool alloc / free as ``(kind, nbytes)``, tagged with ``label[0]``."""
    events = []
    alloc, free = MemoryPool.alloc, MemoryPool.free

    def record(kind, nbytes):
        events.append((kind, nbytes) if label is None else (label[0], kind, nbytes))

    monkeypatch.setattr(MemoryPool, "alloc", lambda pool, n: (record("alloc", n), alloc(pool, n))[1])
    monkeypatch.setattr(MemoryPool, "free", lambda pool, n: (record("free", n), free(pool, n))[1])
    return events


def test_an_activation_no_backward_reads_is_freed_on_the_host_and_charged_until_the_capture_ends(monkeypatch):
    seen = {}

    def run(compile):
        device = Device()
        with use_device(device):
            x, w = _params()  # hidden is (4, 5): 80 bytes, the only 80-byte array
            phase = ["step"]
            events = _events(monkeypatch, phase)

            def step():
                hidden = ops.matmul(x, w)  # sum's backward reads no input
                seen["hidden"] = weakref.ref(hidden.data)
                loss = hidden.sum()
                del hidden
                seen["dead_before_backward"] = seen["hidden"]() is None
                seen["current_before_backward"] = device.memory.current
                loss.backward()
                phase[0] = "capture ending"
                return loss

            (CompiledStep(step) if compile else step)()
            phase[0] = "returned"
            monkeypatch.undo()
        return events, seen["dead_before_backward"], seen["current_before_backward"]

    eager_events, eager_dead, eager_current = run(compile=False)
    events, dead, current = run(compile=True)
    assert eager_dead and dead, "the host kept the activation"
    assert current - eager_current == 80, "the device stopped charging it under capture"
    assert ("step", "free", 80) in eager_events
    frees = [phase for phase, kind, nbytes in events if (kind, nbytes) == ("free", 80)]
    assert frees == ["capture ending"], "freed before the capture ended, or never"


def test_a_capture_that_raises_holds_nothing_afterwards(monkeypatch):
    def eager_step(x, w):
        ops.relu(ops.matmul(x, w)).sum().backward()

    device = Device()
    with use_device(device):
        x, w = _params()
        before = device.memory.current

        def step():
            hidden = ops.exp(ops.matmul(x, w))
            hidden.sum().backward()
            raise ValueError("the step fails mid-capture")

        with pytest.raises(ValueError, match="mid-capture"):
            CompiledStep(step)()
        assert device.memory._held == {}
        w.grad = None
        assert device.memory.current == before
        events = _events(monkeypatch)
        eager_step(x, w)
        monkeypatch.undo()
    fresh = Device()
    with use_device(fresh):
        x, w = _params()
        fresh_events = _events(monkeypatch)
        eager_step(x, w)
        monkeypatch.undo()
    assert events == fresh_events
