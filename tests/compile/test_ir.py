"""IR data model: nodes, aliases, producers/consumers, outputs."""

import numpy as np
import pytest

from repro.compile import GraphIR, IRNode, PassStats, Tracer, capture, content_hash
from repro.device import current_device
from repro.tensor import Tensor, ops


def _node(index, name, out_id=None, parent_ids=(), **kwargs):
    defaults = dict(scope=(), flops=0.0, bytes_moved=0.0)
    defaults.update(kwargs)
    node = IRNode(index=index, name=name, **defaults)
    node.out_id = out_id
    node.parent_ids = tuple(parent_ids)
    if out_id is not None and node.out_shape is None:
        node.out_shape = (1,)
        node.out_size = 1
    return node


class TestIRNode:
    def test_opaque_node_has_no_dataflow(self):
        assert not _node(0, "adam_update").has_dataflow

    def test_annotated_node_has_dataflow(self):
        assert _node(0, "add", out_id=11).has_dataflow


class TestGraphIR:
    def test_producer_and_consumers(self):
        a = _node(0, "matmul", out_id=1)
        b = _node(1, "relu", out_id=2, parent_ids=(1,))
        ir = GraphIR([a, b], output_ids={2})
        assert ir.producer(1) is a
        consumers = ir.consumers()
        assert consumers[0] == [b]
        assert 1 not in consumers

    def test_alias_resolution_reaches_producer(self):
        a = _node(0, "matmul", out_id=1)
        b = _node(1, "relu", out_id=3, parent_ids=(2,))  # consumes a view
        ir = GraphIR([a, b], output_ids={3}, aliases={2: 1})
        assert ir.resolve(2) == 1
        assert ir.producer(2) is a
        assert ir.consumers()[0] == [b]

    def test_alias_cycle_terminates(self):
        ir = GraphIR([], output_ids=set(), aliases={1: 2, 2: 1})
        assert ir.resolve(1) in (1, 2)

    def test_is_output_through_alias(self):
        a = _node(0, "matmul", out_id=1)
        ir = GraphIR([a], output_ids={5}, aliases={5: 1})
        assert ir.is_output(a)

    def test_len(self):
        ir = GraphIR([_node(0, "x"), _node(1, "y")], output_ids=set())
        assert len(ir) == 2


class TestTracer:
    def test_on_launch_records_stream_order(self):
        tracer = Tracer()
        tracer.on_launch("matmul", 10.0, 20.0, ("net",))
        tracer.on_launch("relu", 1.0, 2.0, ())
        assert [n.name for n in tracer.nodes] == ["matmul", "relu"]
        assert tracer.nodes[0].scope == ("net",)
        assert tracer.nodes[1].index == 1

    def test_annotate_before_launch_raises(self):
        with pytest.raises(RuntimeError):
            Tracer().annotate_op(Tensor(np.ones(2)), [])

    def test_capture_annotates_dataflow(self):
        x = Tensor(np.ones((3, 4)))
        w = Tensor(np.ones((4, 2)), requires_grad=True)
        result, ir = capture(lambda: ops.relu(ops.matmul(x, w)))
        assert [n.name for n in ir.nodes] == ["matmul", "relu"]
        matmul, relu = ir.nodes
        assert matmul.has_dataflow and relu.has_dataflow
        assert matmul.out_id in relu.parent_ids
        assert relu.requires_grad  # w requires grad
        assert ir.is_output(relu)
        assert not ir.is_output(matmul)

    def test_capture_sees_reshape_alias(self):
        x = Tensor(np.ones((2, 6)))
        result, ir = capture(lambda: ops.exp(x.reshape(3, 4)))
        # reshape launches nothing but the exp's parent must resolve to x:
        # the view's serial is an alias of the serial x got, which no node produced.
        assert [n.name for n in ir.nodes] == ["exp"]
        (view,) = ir.nodes[0].parent_ids
        assert ir.resolve(view) == ir.aliases[view] != view
        assert ir.producer(view) is None and ir.resolve(view) not in ir.output_ids

    def test_content_hash_distinguishes_values_and_caps_size(self):
        a = np.arange(8, dtype=np.float32)
        b = np.arange(8, dtype=np.float32) + 1
        assert content_hash(a) != content_hash(b)
        assert content_hash(a) == content_hash(a.copy())
        huge = np.lib.stride_tricks.as_strided(
            np.zeros(1, dtype=np.float32), shape=(9 * 1024 * 1024,), strides=(0,)
        )
        assert content_hash(huge) is None

    def test_device_not_tracing_outside_context(self):
        x = Tensor(np.ones(3))
        capture(lambda: ops.exp(x))
        assert current_device().tracer is None


class TestPassStats:
    def test_summary_names_each_pass(self):
        stats = PassStats(dce_removed=2, cse_removed=3, folded=1, fused_groups=2, fused_members=5)
        assert stats.summary() == (
            "dce=2 cse=3 fold=1 fusion=2 groups (5 launches saved, 0 attention pipelines)"
        )
