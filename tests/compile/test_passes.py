"""Optimization passes over synthetic and captured IRs."""

import gc
import weakref

import numpy as np
import pytest

from repro.compile import (
    ACTION_EAGER,
    ACTION_FUSE_HEAD,
    ACTION_FUSE_MEMBER,
    ACTION_SKIP,
    CompiledStep,
    GraphIR,
    IRNode,
    PassStats,
    capture,
    run_passes,
)
from repro.compile.passes import (
    MAX_GROUP,
    common_subexpression_elimination,
    constant_folding,
    dead_code_elimination,
    fuse_elementwise,
    NodeDecision,
)
from repro.tensor import Tensor, ops


def _node(index, name, out_id=None, parent_ids=(), requires_grad=False,
          out_hash=None, out_size=1, bytes_moved=0.0):
    node = IRNode(index=index, name=name, scope=(), flops=0.0, bytes_moved=bytes_moved)
    node.out_id = out_id
    node.parent_ids = tuple(parent_ids)
    node.requires_grad = requires_grad
    node.out_hash = out_hash
    if out_id is not None:
        node.out_shape = (out_size,)
        node.out_size = out_size
    return node


def _fresh(ir):
    return [NodeDecision() for _ in ir.nodes], PassStats()


class TestDCE:
    def test_unobserved_chain_removed_transitively(self):
        # a -> b -> c, nothing consumes c and it is not an output.
        nodes = [
            _node(0, "exp", out_id=1),
            _node(1, "exp", out_id=2, parent_ids=(1,)),
            _node(2, "exp", out_id=3, parent_ids=(2,)),
        ]
        ir = GraphIR(nodes, output_ids=set())
        decisions, stats = _fresh(ir)
        dead_code_elimination(ir, decisions, stats)
        assert [d.action for d in decisions] == [ACTION_SKIP] * 3
        assert stats.dce_removed == 3

    def test_output_and_feeders_stay_live(self):
        nodes = [
            _node(0, "exp", out_id=1),
            _node(1, "exp", out_id=2, parent_ids=(1,)),
        ]
        ir = GraphIR(nodes, output_ids={2})
        decisions, stats = _fresh(ir)
        dead_code_elimination(ir, decisions, stats)
        assert [d.action for d in decisions] == [ACTION_EAGER, ACTION_EAGER]

    def test_autograd_and_opaque_nodes_never_removed(self):
        nodes = [
            _node(0, "matmul", out_id=1, requires_grad=True),
            _node(1, "adam_update"),  # opaque
        ]
        ir = GraphIR(nodes, output_ids=set())
        decisions, stats = _fresh(ir)
        dead_code_elimination(ir, decisions, stats)
        assert [d.action for d in decisions] == [ACTION_EAGER, ACTION_EAGER]
        assert stats.dce_removed == 0

    def test_dead_consumer_does_not_keep_producer(self):
        # b consumes a, but b itself is dead -> both go.
        nodes = [
            _node(0, "exp", out_id=1),
            _node(1, "log", out_id=2, parent_ids=(1,)),
        ]
        ir = GraphIR(nodes, output_ids=set())
        decisions, stats = _fresh(ir)
        dead_code_elimination(ir, decisions, stats)
        assert stats.dce_removed == 2


class TestCSE:
    def test_bitwise_identical_recompute_skipped(self):
        nodes = [
            _node(0, "gather", out_id=1, out_hash="h1"),
            _node(1, "gather", out_id=2, out_hash="h1"),
            _node(2, "gather", out_id=3, out_hash="h2"),  # different value
        ]
        ir = GraphIR(nodes, output_ids=set())
        decisions, stats = _fresh(ir)
        common_subexpression_elimination(ir, decisions, stats)
        assert [d.action for d in decisions] == [ACTION_EAGER, ACTION_SKIP, ACTION_EAGER]
        assert stats.cse_removed == 1

    def test_grad_unhashed_dropout_and_output_ineligible(self):
        nodes = [
            _node(0, "mul", out_id=1, out_hash="h", requires_grad=True),
            _node(1, "mul", out_id=2, out_hash="h", requires_grad=True),
            _node(2, "dropout", out_id=3, out_hash="d"),
            _node(3, "dropout", out_id=4, out_hash="d"),
            _node(4, "gather", out_id=5, out_hash=None),
            _node(5, "gather", out_id=6, out_hash=None),
        ]
        ir = GraphIR(nodes, output_ids=set())
        decisions, stats = _fresh(ir)
        common_subexpression_elimination(ir, decisions, stats)
        assert all(d.action == ACTION_EAGER for d in decisions)
        assert stats.cse_removed == 0

    def test_gcn_norm_chain_cse_on_real_capture(self):
        """Two identical degree-normalisation chains collapse to one."""
        deg = Tensor(np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32))

        def step():
            norms = []
            for _ in range(2):  # two layers recompute the same chain
                norms.append(ops.pow_scalar(ops.clamp_min(deg, 1.0), -0.5))
            return ops.add(norms[0], norms[1])

        _, ir = capture(step)
        decisions, stats = _fresh(ir)
        common_subexpression_elimination(ir, decisions, stats)
        assert stats.cse_removed == 2  # second clamp_min + second pow

    def test_capture_hashes_nothing_and_cse_only_possible_duplicates(self):
        deg = Tensor(np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32))
        w = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)

        def step():
            a = ops.clamp_min(deg, 1.0)
            b = ops.clamp_min(deg, 1.0)  # same kernel, same shape: a candidate pair
            c = ops.exp(deg)  # the only exp: nothing to compare it with
            d = ops.mul(w, deg)  # in the autograd graph: never eligible
            e = ops.mul(w, deg)
            return ops.add(ops.add(a, b), ops.add(c, ops.add(d, e)))

        _, ir = capture(step)
        assert all(node.out_hash is None for node in ir.nodes)
        # Only nodes outside the autograd graph keep their output: CSE reads no other.
        assert [node.requires_grad for node in ir.nodes] == [False, False, False, True, True, False, True, True, True]
        assert all(
            node.out_data is None if node.requires_grad else node.out_data.shape == node.out_shape
            for node in ir.nodes
        )
        decisions, stats = _fresh(ir)
        common_subexpression_elimination(ir, decisions, stats)
        assert stats.cse_removed == 1 and decisions[1].action == ACTION_SKIP
        hashed = [node.name for node in ir.nodes if node.out_hash is not None]
        assert hashed == ["clamp_min", "clamp_min"]
        ir.release_arrays()
        assert all(node.out_data is None for node in ir.nodes)

    def test_a_cached_plan_does_not_pin_the_steps_activations(self):
        x = Tensor(np.ones((8, 8), dtype=np.float32))
        activations = []

        def step():
            hidden = ops.exp(x)
            activations.append(weakref.ref(hidden.data))
            return ops.sum(hidden)

        compiled = CompiledStep(step)
        compiled()
        gc.collect()
        assert len(compiled.plans) == 1
        assert activations[0]() is None


class TestConstantFolding:
    def test_scalar_chain_over_constants_folds(self):
        # const -> neg -> exp, all size-1, no grad.
        nodes = [
            _node(0, "neg", out_id=2, parent_ids=(1,)),
            _node(1, "exp", out_id=3, parent_ids=(2,)),
            _node(2, "add", out_id=4, parent_ids=(3, 5)),  # 5 unknown: not folded
        ]
        ir = GraphIR(nodes, output_ids={4}, constant_ids={1})
        decisions, stats = _fresh(ir)
        constant_folding(ir, decisions, stats)
        assert [d.action for d in decisions] == [ACTION_SKIP, ACTION_SKIP, ACTION_EAGER]
        assert stats.folded == 2

    def test_large_outputs_not_folded(self):
        nodes = [_node(0, "neg", out_id=2, parent_ids=(1,), out_size=64)]
        ir = GraphIR(nodes, output_ids=set(), constant_ids={1})
        decisions, stats = _fresh(ir)
        constant_folding(ir, decisions, stats)
        assert decisions[0].action == ACTION_EAGER

    def test_scalar_literal_math_folds_on_real_capture(self):
        x = Tensor(np.ones(1))
        _, ir = capture(lambda: x * 2.0 * 3.0)
        decisions, stats = _fresh(ir)
        constant_folding(ir, decisions, stats)
        # The literals are constants, but x is not, so neither mul folds.
        assert stats.folded == 0


class TestFusion:
    def test_head_plus_elementwise_chain(self):
        nodes = [
            _node(0, "matmul", out_id=1, bytes_moved=100.0),
            _node(1, "add", out_id=2, parent_ids=(1,), bytes_moved=100.0),
            _node(2, "relu", out_id=3, parent_ids=(2,), bytes_moved=100.0),
            _node(3, "matmul", out_id=4, parent_ids=(3,), bytes_moved=100.0),
        ]
        ir = GraphIR(nodes, output_ids={4})
        decisions, stats = _fresh(ir)
        fuse_elementwise(ir, decisions, stats)
        assert [d.action for d in decisions] == [
            ACTION_FUSE_HEAD, ACTION_FUSE_MEMBER, ACTION_FUSE_MEMBER, ACTION_EAGER,
        ]
        assert stats.fused_groups == 1
        assert stats.fused_members == 2

    def test_interior_edges_discount_bytes(self):
        # add consumes matmul's out (4-byte floats, size 10): the matmul
        # saves its write, the add saves its read.
        nodes = [
            _node(0, "matmul", out_id=1, out_size=10, bytes_moved=120.0),
            _node(1, "add", out_id=2, parent_ids=(1,), out_size=10, bytes_moved=80.0),
        ]
        ir = GraphIR(nodes, output_ids={2})
        decisions, stats = _fresh(ir)
        fuse_elementwise(ir, decisions, stats)
        assert decisions[0].byte_scale == pytest.approx((120 - 40) / 120)
        assert decisions[1].byte_scale == pytest.approx((80 - 40) / 80)

    def test_opaque_members_keep_bytes_but_join(self):
        nodes = [
            _node(0, "sum_backward", bytes_moved=100.0),
            _node(1, "relu_backward", bytes_moved=100.0),
        ]
        ir = GraphIR(nodes, output_ids=set())
        decisions, stats = _fresh(ir)
        fuse_elementwise(ir, decisions, stats)
        assert decisions[0].action == ACTION_FUSE_HEAD
        assert decisions[1].action == ACTION_FUSE_MEMBER
        assert decisions[1].byte_scale == 1.0

    def test_skipped_nodes_are_transparent(self):
        nodes = [
            _node(0, "matmul", out_id=1),
            _node(1, "gather", out_id=2),  # will be marked skip
            _node(2, "relu", out_id=3, parent_ids=(1,)),
        ]
        ir = GraphIR(nodes, output_ids={3})
        decisions, stats = _fresh(ir)
        decisions[1].action = ACTION_SKIP
        fuse_elementwise(ir, decisions, stats)
        assert decisions[0].action == ACTION_FUSE_HEAD
        assert decisions[2].action == ACTION_FUSE_MEMBER

    def test_max_group_splits_chains(self):
        count = 2 * MAX_GROUP + 1
        nodes = [_node(i, "relu", out_id=i + 1, parent_ids=(i,) if i else ())
                 for i in range(count)]
        ir = GraphIR(nodes, output_ids={count})
        decisions, stats = _fresh(ir)
        fuse_elementwise(ir, decisions, stats)
        assert MAX_GROUP == 8
        groups = [d.group for d in decisions]
        # 8 + 8 + 1 -> the trailing singleton stays eager
        assert groups == [0] * 8 + [1] * 8 + [None]
        assert decisions[-1].action == ACTION_EAGER
        assert stats.fused_groups == 2

    def test_barrier_kernel_breaks_chains(self):
        nodes = [
            _node(0, "matmul", out_id=1),
            _node(1, "all_reduce"),
            _node(2, "relu", out_id=2, parent_ids=(1,)),
        ]
        ir = GraphIR(nodes, output_ids={2})
        decisions, stats = _fresh(ir)
        fuse_elementwise(ir, decisions, stats)
        assert all(d.action == ACTION_EAGER for d in decisions)


class TestRunPasses:
    def test_pass_order_respected_dce_enables_fusion(self):
        # dead gather between matmul and relu: with dce first, fusion sees
        # an adjacent pair.
        nodes = [
            _node(0, "matmul", out_id=1),
            _node(1, "gather", out_id=2),  # dead
            _node(2, "relu", out_id=3, parent_ids=(1,)),
        ]
        ir = GraphIR(nodes, output_ids={3})
        decisions, stats = run_passes(ir)
        assert decisions[1].action == ACTION_SKIP
        assert decisions[0].action == ACTION_FUSE_HEAD
        assert decisions[2].action == ACTION_FUSE_MEMBER
