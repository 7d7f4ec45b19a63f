"""Scoped profiler regressions: re-entrant and repeated module scopes.

A module called twice in one step (weight-shared layers, recursive blocks)
pushes the same scope name onto the stack more than once; the records'
scope tuples must keep those invocations distinct by position, not collapse
or double-count them.
"""

import numpy as np

from repro.device import Device, use_device
from repro.nn import Linear, Module
from repro.tensor import Tensor


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
        linear_scoped = [r for r in records if r.scope[:2] == ("_SharedBlock", "linear")]
        # both invocations of the shared layer land under the same prefix
        assert len(linear_scoped) >= 2
        matmuls = [r for r in linear_scoped if r.name == "matmul"]
        assert len(matmuls) == 2
        # and nothing else is scoped under the shared layer
        assert all(r.scope == ("_SharedBlock", "linear") for r in linear_scoped)

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
        assert all(r in depth1 for r in depth2)
        shallow_only = [r for r in depth1 if r not in depth2]
        assert shallow_only
        assert all(r.scope[:2] != ("_Recursive", "_Recursive") for r in shallow_only)
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
