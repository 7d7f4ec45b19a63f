"""CompiledStep: plan caching, guards, recapture, trainer/serving wiring."""

import numpy as np
import pytest

from repro.compile import CompiledStep, default_signature
from repro.compile.compiled import MAX_PLANS
from repro.device import Device, current_device, use_device
from repro.tensor import Tensor, ops


def _linear_step(w):
    def step(x):
        return ops.relu(ops.matmul(x, w)).sum()

    return step


class TestPlanCaching:
    def test_capture_then_replay(self):
        w = Tensor(np.ones((8, 8)), requires_grad=True)
        cs = CompiledStep(_linear_step(w))
        x = Tensor(np.ones((4, 8)))
        cs(x)
        assert cs.stats.captures == 1
        cs(x)
        assert cs.stats.replays == 1
        assert cs.stats.guard_failures == 0

    def test_structural_signature_shares_plans_across_batch_sizes(self):
        w = Tensor(np.ones((8, 8)), requires_grad=True)
        cs = CompiledStep(_linear_step(w))
        cs(Tensor(np.ones((4, 8))))
        cs(Tensor(np.ones((32, 8))))  # same rank + feature dim -> same plan
        assert cs.stats.captures == 1
        assert cs.stats.replays == 1
        assert len(cs.plans) == 1

    def test_different_feature_width_gets_own_plan(self):
        def step(x):
            return ops.exp(x)

        cs = CompiledStep(step)
        cs(Tensor(np.ones((4, 8))))
        cs(Tensor(np.ones((4, 16))))
        assert cs.stats.captures == 2
        assert len(cs.plans) == 2

    def test_max_plans_evicts_fifo(self):
        cs = CompiledStep(lambda x: ops.exp(x))
        widths = range(2, 2 + MAX_PLANS + 1)
        for width in widths:
            cs(Tensor(np.ones((1, width))))
        assert MAX_PLANS == 16
        assert len(cs.plans) == MAX_PLANS
        assert cs.stats.captures == MAX_PLANS + 1
        kept = [default_signature((Tensor(np.ones((1, w))),), {}) for w in widths]
        assert list(cs.plans) == kept[1:]  # the first plan went first


class TestGuardRecapture:
    def test_control_flow_change_recaptures(self):
        w = Tensor(np.ones((4, 4)), requires_grad=True)
        mode = {"extra": False}

        def step(x):
            h = ops.matmul(x, w)
            if mode["extra"]:
                h = ops.exp(h)
            return h.sum()

        cs = CompiledStep(step)
        x = Tensor(np.ones((2, 4)))
        cs(x)  # capture
        mode["extra"] = True
        cs(x)  # guard failure: extra kernel not in plan
        assert cs.stats.guard_failures == 1
        assert len(cs.plans) == 0  # stale plan dropped
        cs(x)  # recapture with the new control flow
        cs(x)
        assert cs.stats.captures == 2
        assert cs.stats.replays == 1

    def test_nested_compiled_step_runs_eagerly(self):
        inner = CompiledStep(lambda x: ops.exp(x))

        def outer_fn(x):
            return inner(x)

        outer = CompiledStep(outer_fn)
        x = Tensor(np.ones((2, 2)))
        outer(x)  # inner sees capture in progress -> eager passthrough
        outer(x)  # inner sees replay in progress -> eager passthrough
        assert inner.stats.eager_calls == 2
        assert inner.stats.captures == 0
        assert outer.stats.captures == 1
        assert outer.stats.replays == 1


class TestDefaultSignature:
    def test_tensor_and_scalar_components(self):
        sig = default_signature((Tensor(np.ones((3, 7))), 5), {"flag": True})
        assert ("tensor", 2, 7) in sig
        assert ("scalar", 5) in sig

    def test_vector_tensor_uses_unit_width(self):
        sig = default_signature((Tensor(np.ones(9)),), {})
        assert sig == (("tensor", 1, 1),)

    def test_opaque_objects_keyed_by_type(self):
        class Thing:
            pass

        sig = default_signature((Thing(),), {})
        assert sig == (("opaque", "Thing"),)


class TestTrainerIntegration:
    @pytest.mark.parametrize("framework", ["pygx", "dglx"])
    def test_compiled_training_matches_eager_losses(self, framework):
        from repro.datasets import load_dataset
        from repro.train import GraphClassificationTrainer

        ds = load_dataset("enzymes", num_graphs=120)
        eager = GraphClassificationTrainer(framework, "gcn", ds, batch_size=64)
        r_eager = eager.measure_epoch(n_epochs=2, seed=0)
        compiled = GraphClassificationTrainer(
            framework, "gcn", ds, batch_size=64, compile=True
        )
        r_comp = compiled.measure_epoch(n_epochs=2, seed=0)

        eager_losses = [e.train_loss for e in r_eager.epochs]
        comp_losses = [e.train_loss for e in r_comp.epochs]
        np.testing.assert_allclose(comp_losses, eager_losses, rtol=1e-6)
        step = compiled.compiled_step
        assert step is not None
        assert step.stats.replays > 0
        assert step.stats.guard_failures == 0
        # compiled epochs must be faster on the simulated clock
        assert r_comp.mean_epoch_time < r_eager.mean_epoch_time

    def test_gcn_enzymes_batch128_launch_reduction_at_least_40pct(self):
        """Acceptance criterion: >= 40% fewer launches per training step."""
        from repro.datasets import load_dataset
        from repro.train import GraphClassificationTrainer

        ds = load_dataset("enzymes", num_graphs=240)
        trainer = GraphClassificationTrainer(
            "pygx", "gcn", ds, batch_size=128, compile=True
        )
        trainer.measure_epoch(n_epochs=1, seed=0)
        plans = trainer.compiled_step.plans
        assert plans
        for plan in plans.values():
            assert plan.launch_reduction >= 0.40, repr(plan)


def _predict(inference, graphs):
    return np.argmax(inference.forward(inference.collate(graphs)).data, axis=1)


class TestServingIntegration:
    def test_inference_model_compiled_forward_matches_eager(self):
        from repro.bench import trained_inference_model

        inference = trained_inference_model("pygx", "gcn", "enzymes", num_graphs=60)
        from repro.datasets import load_dataset

        graphs = load_dataset("enzymes", num_graphs=60).graphs[:8]
        eager_pred = _predict(inference, graphs)
        inference.enable_compile()
        compiled_first = _predict(inference, graphs)   # capture
        compiled_second = _predict(inference, graphs)  # replay
        np.testing.assert_array_equal(eager_pred, compiled_first)
        np.testing.assert_array_equal(eager_pred, compiled_second)
        assert inference.compiled.stats.captures >= 1
        assert inference.compiled.stats.replays >= 1

    def test_compiled_serving_is_faster_per_batch(self):
        from repro.bench import trained_inference_model
        from repro.datasets import load_dataset

        inference = trained_inference_model("dglx", "gcn", "enzymes", num_graphs=60)
        graphs = load_dataset("enzymes", num_graphs=60).graphs[:8]
        device = current_device()

        _predict(inference, graphs)  # warm caches
        before = device.clock.elapsed
        _predict(inference, graphs)
        eager_time = device.clock.elapsed - before

        inference.enable_compile()
        _predict(inference, graphs)  # capture
        before = device.clock.elapsed
        _predict(inference, graphs)  # replay
        compiled_time = device.clock.elapsed - before
        assert compiled_time < eager_time
