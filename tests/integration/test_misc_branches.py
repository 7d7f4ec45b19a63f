"""Smaller behaviours across modules that the focused suites skip."""

import numpy as np
import pytest

from repro.device import Device, use_device
from repro.nn import Module, Parameter
from repro.tensor import Tensor, ops


class TestDeviceTransfer:
    def test_transfer_charges_latency_plus_bandwidth(self):
        dev = Device()
        dev.transfer(dev.spec.pcie_bandwidth)  # exactly one second of payload
        assert dev.clock.elapsed == pytest.approx(1.0 + dev.spec.pcie_latency)

    def test_transfer_is_host_time(self):
        dev = Device()
        dev.transfer(1e6)
        assert dev.clock.gpu_busy == 0.0


class TestModuleBuffers:
    def test_register_buffer_roundtrip(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                self.register_buffer("stats", np.arange(3, dtype=np.float32))

        m = M()
        assert dict(m.named_buffers())["stats"].sum() == 3.0
        state = m.state_dict()
        state["stats"] = np.ones(3, np.float32)
        m.load_state_dict(state)
        assert m.stats.sum() == 3.0


class TestTensorViews:
    def test_reshape_accepts_tuple(self):
        t = Tensor(np.arange(6, dtype=np.float32))
        assert t.reshape((2, 3)).shape == (2, 3)
        assert t.reshape(3, 2).shape == (3, 2)

    def test_stack_backward_shapes(self):
        a = Tensor(np.ones(3, np.float32), requires_grad=True)
        b = Tensor(np.ones(3, np.float32), requires_grad=True)
        ops.stack([a, b], axis=0).sum().backward()
        assert a.grad.shape == (3,)
        assert b.grad.shape == (3,)


class TestAdamUnderNoGrad:
    def test_optimizer_state_not_graphed(self):
        from repro.optim import Adam

        dev = Device()
        with use_device(dev):
            p = Parameter(np.ones(4, np.float32))
            opt = Adam([p], lr=0.1)
            p.grad = np.ones(4, np.float32)
            opt.step()
            # Adam state lives on the device
            assert dev.memory.current > 0


class TestMLPReadoutVariants:
    def test_custom_halvings(self):
        from repro.models import MLPReadout

        head = MLPReadout(64, 4, n_halvings=3, rng=np.random.default_rng(0))
        widths = [layer.out_features for layer in head.hidden_layers]
        assert widths == [32, 16, 8]


class TestMNISTKnnParameter:
    def test_knn_controls_density(self):
        from repro.datasets import mnist_superpixels

        sparse = mnist_superpixels(20, seed=0, knn=4)
        dense = mnist_superpixels(20, seed=0, knn=12)
        sparse_edges = np.mean([g.num_edges for g in sparse.graphs])
        dense_edges = np.mean([g.num_edges for g in dense.graphs])
        assert dense_edges > 1.5 * sparse_edges
