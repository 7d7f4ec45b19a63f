"""The attention fusion pass: SDDMM -> edge softmax -> SpMM pipelines.

docs/kernels.md's fusion-eligibility contract on real model streams: the
pass finds every attention pipeline in a dglx GAT step and none in pygx's
gather/scatter one, cuts per-step launches >= 40%, and replay stays
bitwise-identical to eager — while models without attention kernels
compile exactly as before.
"""

import numpy as np
import pytest

from repro.compile import CompiledStep
from repro.compile.ir import GraphIR, IRNode, PassStats
from repro.compile.passes import (
    NodeDecision,
    fuse_attention,
    fuse_elementwise,
    run_passes,
)
from repro.datasets import load_dataset
from repro.models import graph_config
from repro.nn import cross_entropy


def _build_step(framework, model_name, seed=7):
    dataset = load_dataset("enzymes", num_graphs=60)
    config = graph_config(
        model_name, in_dim=dataset.num_features, n_classes=dataset.num_classes
    )
    rng = np.random.default_rng(seed)
    if framework == "pygx":
        from repro.pygx import Batch, Data, build_model

        net = build_model(config, rng)
        inputs = Batch.from_data_list(
            [Data.from_sample(g) for g in dataset.graphs[:32]]
        )
        labels = inputs.y
    else:
        from repro.dglx import batch as dgl_batch
        from repro.dglx import build_model

        net = build_model(config, rng)
        samples = dataset.graphs[:32]
        inputs = dgl_batch(samples)
        labels = np.array([g.y for g in samples])
    return net, inputs, labels


def _compile(net, inputs, labels):
    def step(batch):
        loss = cross_entropy(net(batch), labels)
        loss.backward()
        return loss

    compiled = CompiledStep(step)
    compiled(inputs)  # capture
    return compiled, next(iter(compiled.plans.values()))


def _assert_replay_matches_eager(net, inputs, labels):
    """Capture then replay one step; loss and grads must equal eager's bitwise."""
    for p in net.parameters():
        p.zero_grad()
    eager_loss = cross_entropy(net(inputs), labels)
    eager_loss.backward()
    eager = eager_loss.item()
    eager_grads = [np.array(p.grad) for p in net.parameters()]

    def step(batch):
        loss = cross_entropy(net(batch), labels)
        loss.backward()
        return loss

    compiled = CompiledStep(step)
    for expected_stat in ("captures", "replays"):
        for p in net.parameters():
            p.zero_grad()
        loss = compiled(inputs)
        assert loss.item() == eager
        for grad, ref in zip(
            [p.grad for p in net.parameters()], eager_grads
        ):
            np.testing.assert_array_equal(grad, ref)
        assert getattr(compiled.stats, expected_stat) == 1
    assert compiled.stats.guard_failures == 0
    return compiled


class TestGATPipelines:
    def test_launch_reduction_and_bitwise_parity(self):
        net, inputs, labels = _build_step("dglx", "gat")
        compiled = _assert_replay_matches_eager(net, inputs, labels)

        plan = next(iter(compiled.plans.values()))
        # One pipeline per GAT layer, all closed by the pass.
        assert plan.stats.attention_groups == 4
        # Acceptance bar: the fused attention path sheds >= 40% of the
        # eager stream's launches.
        assert plan.launch_reduction >= 0.40

    def test_unfused_pygx_stream_has_no_pipelines(self):
        # pygx's GATConv composes scatter softmax: no gsddmm
        # heads, so the attention pass must find nothing.
        net, inputs, labels = _build_step("pygx", "gat")
        _, plan = _compile(net, inputs, labels)
        assert plan.stats.attention_groups == 0

    def test_unfused_pygx_replay_is_bitwise_identical(self):
        net, inputs, labels = _build_step("pygx", "gat")
        _assert_replay_matches_eager(net, inputs, labels)

    @pytest.mark.parametrize("model_name", ("gcn", "gin"))
    def test_models_without_attention_are_untouched(self, model_name):
        net, inputs, labels = _build_step("dglx", model_name)
        _, plan = _compile(net, inputs, labels)
        assert plan.stats.attention_groups == 0


def _node(index, name, out_id=None, parents=(), out_size=4):
    node = IRNode(index=index, name=name, scope=(), flops=10.0, bytes_moved=64.0)
    node.out_id = out_id
    node.parent_ids = tuple(parents)
    node.requires_grad = False
    if out_id is not None:
        node.out_shape = (out_size,)
        node.out_size = out_size
    return node


def _attention_stream():
    return GraphIR(
        [
            _node(0, "gsddmm_add", out_id=1),
            _node(1, "leaky_relu", out_id=2, parents=(1,)),
            _node(2, "edge_softmax_norm", out_id=3, parents=(2,)),
            _node(3, "edge_softmax", out_id=4, parents=(3,)),
            _node(4, "gspmm", out_id=5, parents=(4,)),
        ],
        output_ids={5},
    )


class TestPassMechanics:
    def test_chain_without_softmax_is_not_fused(self):
        ir = GraphIR(
            [
                _node(0, "gsddmm_dot", out_id=1),
                _node(1, "gspmm", out_id=2, parents=(1,)),
            ],
            output_ids={2},
        )
        decisions = [NodeDecision() for _ in ir.nodes]
        fuse_attention(ir, decisions, PassStats())
        assert all(d.group is None for d in decisions)

    def test_backward_kernels_never_join(self):
        ir = GraphIR(
            [
                _node(0, "gsddmm_add_backward", out_id=1),
                _node(1, "edge_softmax", out_id=2, parents=(1,)),
                _node(2, "gspmm", out_id=3, parents=(2,)),
            ],
            output_ids={3},
        )
        decisions = [NodeDecision() for _ in ir.nodes]
        stats = PassStats()
        fuse_attention(ir, decisions, stats)
        assert stats.attention_groups == 0

    def test_elementwise_pass_respects_attention_groups(self):
        # attention then fuse: the elementwise pass must neither extend
        # nor renumber the attention group.
        ir = _attention_stream()
        decisions, stats = run_passes(ir, passes=("attention", "fuse"))
        assert stats.attention_groups == 1
        attention_group = decisions[0].group
        assert attention_group is not None
        assert all(d.group == attention_group for d in decisions)

    def test_elementwise_chain_after_pipeline_gets_fresh_group(self):
        ir = GraphIR(
            _attention_stream().nodes
            + [
                _node(5, "matmul", out_id=6, parents=(5,)),
                _node(6, "relu", out_id=7, parents=(6,)),
            ],
            output_ids={7},
        )
        decisions, stats = run_passes(ir, passes=("attention", "fuse"))
        assert stats.attention_groups == 1
        assert stats.fused_groups == 2
        assert decisions[5].group is not None
        assert decisions[5].group != decisions[0].group
