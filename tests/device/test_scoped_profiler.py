"""Scoped profiler regressions: re-entrant and repeated module scopes.

A module called twice in one step (weight-shared layers, recursive blocks)
pushes the same scope name onto the stack more than once; ``in_scope`` and
the profiler aggregations must keep those invocations distinct by position,
not collapse or double-count them.
"""

import numpy as np
import pytest

from repro.device import Device, KernelRecord, use_device
from repro.nn import Linear, Module
from repro.tensor import Tensor


def _record(scope, name="k", duration=1.0):
    return KernelRecord(
        name=name, scope=tuple(scope), duration=duration,
        flops=0.0, bytes_moved=0.0, timestamp=0.0,
    )


class TestInScope:
    def test_prefix_semantics(self):
        record = _record(("net", "block", "linear"))
        assert record.in_scope(("net",))
        assert record.in_scope(("net", "block"))
        assert record.in_scope(("net", "block", "linear"))
        assert not record.in_scope(("block",))  # not a prefix, just a member
        assert not record.in_scope(("net", "linear"))

    def test_prefix_longer_than_scope(self):
        record = _record(("net",))
        assert not record.in_scope(("net", "block"))

    def test_empty_prefix_matches_everything(self):
        assert _record(("a", "b")).in_scope(())
        assert _record(()).in_scope(())

    def test_reentrant_scope_distinct_from_single(self):
        # A block that calls itself: scope ("block", "block") is inside
        # ("block",) but a record at depth 1 is NOT inside ("block", "block").
        outer = _record(("block",))
        inner = _record(("block", "block"))
        assert inner.in_scope(("block",))
        assert inner.in_scope(("block", "block"))
        assert not outer.in_scope(("block", "block"))

    def test_accepts_list_prefix(self):
        assert _record(("net", "conv1")).in_scope(["net", "conv1"])


class _SharedBlock(Module):
    """One linear layer applied twice per forward (weight sharing)."""

    def __init__(self, rng):
        super().__init__()
        self.linear = Linear(4, 4, rng=rng)

    def forward(self, x):
        return self.linear(self.linear(x))


class _Recursive(Module):
    """A module that re-enters its own scope via a self call."""

    def __init__(self, rng):
        super().__init__()
        self.linear = Linear(4, 4, rng=rng)

    def forward(self, x, depth=2):
        h = self.linear(x)
        if depth > 1:
            with_scope = self.__call__  # re-enters "block" scope
            return with_scope(h, depth=depth - 1)
        return h


class TestReentrantModuleScopes:
    def test_same_module_twice_in_one_step(self, rng):
        device = Device()
        device.profiler.enabled = True
        with use_device(device):
            block = _SharedBlock(rng)
            block(Tensor(np.ones((2, 4))))
        records = device.profiler.records
        linear_scoped = [r for r in records if r.in_scope(("_SharedBlock", "linear"))]
        # both invocations of the shared layer land under the same prefix
        assert len(linear_scoped) >= 2
        matmuls = [r for r in linear_scoped if r.name == "matmul"]
        assert len(matmuls) == 2
        # and the profiler sums both without double counting
        total = device.profiler.total_time(("_SharedBlock", "linear"))
        assert total == pytest.approx(sum(r.duration for r in linear_scoped))

    def test_nested_reentrant_scope_stack(self, rng):
        device = Device()
        device.profiler.enabled = True
        with use_device(device):
            block = _Recursive(rng)
            block(Tensor(np.ones((2, 4))))
        records = device.profiler.records
        depth1 = [r for r in records if r.scope[:1] == ("_Recursive",)]
        depth2 = [r for r in records if r.scope[:2] == ("_Recursive", "_Recursive")]
        assert depth1 and depth2
        # the re-entered scope is strictly nested: every depth-2 record also
        # matches the depth-1 prefix, never the other way round
        for r in depth2:
            assert r.in_scope(("_Recursive",))
        shallow_only = [r for r in depth1 if r not in depth2]
        for r in shallow_only:
            assert not r.in_scope(("_Recursive", "_Recursive"))
        # recursion depth 2 -> one matmul per level
        assert sum(1 for r in depth2 if r.name == "matmul") == 1
        assert sum(1 for r in depth1 if r.name == "matmul") == 2

    def test_scope_stack_restored_between_calls(self, rng):
        device = Device()
        with use_device(device):
            block = _SharedBlock(rng)
            block(Tensor(np.ones((2, 4))))
            assert device.current_scope == ()
            block(Tensor(np.ones((2, 4))))
            assert device.current_scope == ()

    def test_reentrant_calls_share_the_top_scope(self, rng):
        device = Device()
        device.profiler.enabled = True
        with use_device(device):
            block = _Recursive(rng)
            block(Tensor(np.ones((2, 4))))
        assert {r.scope[:1] for r in device.profiler.records} == {("_Recursive",)}
        assert device.profiler.total_time(("_Recursive",)) == pytest.approx(
            device.profiler.total_time()
        )
