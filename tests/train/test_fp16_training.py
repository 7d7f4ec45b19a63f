"""fp16 roofline mode through the trainers.

docs/kernels.md's numerics policy: ``precision="fp16"`` halves tensor
bytes (launches, transfers, tracked memory) and nothing else — losses,
gradients and accuracies stay bitwise-identical to fp32 while epochs get
faster and peak memory drops by about half.
"""

import numpy as np
import pytest

from repro.datasets import enzymes, load_dataset
from repro.device import PRECISION_BYTE_SCALE, Device, use_device
from repro.tensor import Tensor
from repro.train import GraphClassificationTrainer, NodeClassificationTrainer


def _graph_runs(model_name, framework, precisions=("fp32", "fp16")):
    runs = {}
    for precision in precisions:
        trainer = GraphClassificationTrainer(
            framework,
            model_name,
            enzymes(seed=0, num_graphs=16),
            batch_size=8,
            device=Device(precision=precision),
        )
        runs[precision] = trainer.measure_epoch(n_epochs=2, seed=0)
    return runs["fp32"], runs["fp16"]


class TestGraphTrainerParity:
    @pytest.mark.parametrize(
        "framework,model_name",
        [("pygx", "gcn"), ("dglx", "gcn"), ("pygx", "gat"), ("dglx", "gat")],
    )
    def test_losses_bitwise_identical(self, framework, model_name):
        f32, f16 = _graph_runs(model_name, framework)
        assert [e.train_loss for e in f16.epochs] == [
            e.train_loss for e in f32.epochs
        ]
        assert f16.test_acc == f32.test_acc

    def test_fp16_is_faster_with_half_the_memory(self):
        f32, f16 = _graph_runs("gcn", "dglx")
        assert f16.mean_epoch_time < f32.mean_epoch_time
        # Tensor payloads ship half-width; only non-launch bookkeeping
        # keeps the ratio from being exactly 0.5.
        assert 0.4 < f16.peak_memory / f32.peak_memory < 0.6


class TestNodeTrainerParity:
    @pytest.mark.parametrize("model_name", ("gcn", "gat"))
    def test_cora_losses_and_accuracy_identical(self, model_name):
        results = {}
        for precision in ("fp32", "fp16"):
            trainer = NodeClassificationTrainer(
                "dglx",
                model_name,
                load_dataset("cora"),
                max_epochs=3,
                device=Device(precision=precision),
            )
            results[precision] = trainer.run(seed=0)
        f32, f16 = results["fp32"], results["fp16"]
        assert [e.train_loss for e in f16.epochs] == [
            e.train_loss for e in f32.epochs
        ]
        assert f16.test_acc == f32.test_acc
        assert f16.total_time < f32.total_time


class TestDeviceByteScaling:
    def test_unknown_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            Device(precision="bf16")

    def test_trainer_adopts_explicit_device_precision(self):
        device = Device(precision="fp16")
        trainer = GraphClassificationTrainer(
            "pygx", "gcn", enzymes(seed=0, num_graphs=8), device=device
        )
        assert trainer.device.precision == "fp16"

    def test_launch_bytes_scaled_by_half(self, rng):
        records = {}
        for precision in ("fp32", "fp16"):
            device = Device(precision=precision)
            device.profiler.enabled = True
            with use_device(device):
                x = Tensor(rng.normal(size=(64, 64)).astype(np.float32))
                (x * x).sum()
            records[precision] = device.profiler.records
        scale = PRECISION_BYTE_SCALE["fp16"]
        assert scale == 0.5
        for r32, r16 in zip(records["fp32"], records["fp16"]):
            assert r16.name == r32.name
            assert r16.flops == r32.flops  # compute is not scaled
            assert r16.bytes_moved == pytest.approx(r32.bytes_moved * scale)
