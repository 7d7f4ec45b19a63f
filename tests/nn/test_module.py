"""Module system: registration, traversal, modes, state dicts, scopes."""

import numpy as np
import pytest

from repro.device import current_device
from repro.nn import BatchNorm1d, Dropout, Linear, Module, ModuleList, Parameter
from repro.tensor import Tensor


class Net(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 3, rng=np.random.default_rng(0))
        self.fc2 = Linear(3, 2, rng=np.random.default_rng(1))
        self.scale = Parameter(np.ones(1, np.float32))

    def forward(self, x):
        return self.fc2(self.fc1(x)) * self.scale


class TestRegistration:
    def test_named_parameters_walks_tree(self):
        names = dict(Net().named_parameters())
        assert set(names) == {"fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias", "scale"}

    def test_num_parameters(self):
        assert Net().num_parameters() == 4 * 3 + 3 + 3 * 2 + 2 + 1

    def test_param_bytes(self):
        assert Net().param_bytes() == Net().num_parameters() * 4

    def test_modules_iterates_all(self):
        assert len(list(Net().modules())) == 3

    def test_scope_name_set_on_attribute_assignment(self):
        net = Net()
        assert net.fc1._scope_name == "fc1"

    def test_buffers_registered(self):
        bn = BatchNorm1d(4)
        names = dict(bn.named_buffers())
        assert set(names) == {"running_mean", "running_var"}


class TestModes:
    def test_train_eval_propagates(self):
        net = Net()
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_zero_grad(self):
        net = Net()
        x = Tensor(np.ones((2, 4), np.float32))
        net(x).sum().backward()
        assert net.fc1.weight.grad is not None
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestStateDict:
    def test_roundtrip(self):
        a, b = Net(), Net()
        b.load_state_dict(a.state_dict())
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_mismatch_raises(self):
        net = Net()
        state = net.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        net = Net()
        state = net.state_dict()
        state["scale"] = np.zeros(7, np.float32)
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_load_is_inplace(self):
        a, b = Net(), Net()
        original = b.fc1.weight
        b.load_state_dict(a.state_dict())
        assert b.fc1.weight is original


class TestScopes:
    def test_call_pushes_scope(self, fresh_device):
        events = []

        class Probe(Module):
            def forward(self):
                events.append(current_device().current_scope)

        class Wrap(Module):
            def __init__(self):
                super().__init__()
                self.inner = Probe()

            def forward(self):
                self.inner()

        Wrap()()
        assert events == [("Wrap", "inner")]


class TestContainers:
    def test_module_list(self):
        ml = ModuleList([Linear(2, 2), Linear(2, 2)])
        ml.append(Linear(2, 2))
        assert len(ml) == 3
        assert len(list(ml.parameters())) == 6
        with pytest.raises(RuntimeError):
            ml(Tensor(np.ones((1, 2))))


class TestLinear:
    def test_affine_values(self):
        lin = Linear(2, 2, rng=np.random.default_rng(0))
        lin.weight.data[:] = np.array([[1.0, 2.0], [3.0, 4.0]], np.float32)
        lin.bias.data[:] = np.array([10.0, 20.0], np.float32)
        out = lin(Tensor(np.array([[1.0, 1.0]], np.float32)))
        np.testing.assert_allclose(out.data, [[14.0, 26.0]])

    def test_no_bias(self):
        lin = Linear(3, 2, bias=False)
        assert lin.bias is None
        assert len(list(lin.parameters())) == 1

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 2)


class TestDropoutModule:
    def test_eval_is_identity(self):
        d = Dropout(0.5)
        d.eval()
        x = Tensor(np.ones(10, np.float32))
        assert d(x) is x

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.5)
