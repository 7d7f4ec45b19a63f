"""Model registry: checkpoint loading, eval mode, framework-uniform predict."""

import numpy as np
import pytest

from repro.datasets import enzymes
from repro.models import graph_config
from repro.serve import InferenceModel, ModelRegistry
from repro.tensor import no_grad
from repro.train import checkpoint_name, save_checkpoint


@pytest.fixture()
def dataset():
    return enzymes(seed=0, num_graphs=12)


def build(framework, config, seed=0):
    if framework == "pygx":
        from repro.pygx import build_model
    else:
        from repro.dglx import build_model
    return build_model(config, np.random.default_rng(seed))


@pytest.fixture()
def config(dataset):
    return graph_config("gcn", in_dim=dataset.num_features, n_classes=dataset.num_classes)


def _predict(inference, graphs):
    return np.argmax(inference.forward(inference.collate(graphs)).data, axis=1)


class TestInferenceModel:
    @pytest.mark.parametrize("framework", ["pygx", "dglx"])
    def test_predict_shape_and_range(self, framework, dataset, config):
        inference = InferenceModel(framework, build(framework, config), config, "enzymes")
        predictions = _predict(inference, dataset.graphs[:5])
        assert predictions.shape == (5,)
        assert np.all((predictions >= 0) & (predictions < dataset.num_classes))

    def test_model_put_in_eval_mode(self, dataset, config):
        model = build("pygx", config)
        assert model.training
        InferenceModel("pygx", model, config, "enzymes")
        assert not model.training

    def test_collate_charged_to_data_loading_phase(self, fresh_device, dataset, config):
        inference = InferenceModel("pygx", build("pygx", config), config, "enzymes")
        _predict(inference, dataset.graphs[:4])
        phases = fresh_device.clock.phase_elapsed
        assert phases.get("data_loading", 0.0) > 0.0
        assert phases.get("forward", 0.0) > 0.0

    def test_forward_is_gradient_free(self, dataset, config):
        inference = InferenceModel("pygx", build("pygx", config), config, "enzymes")
        logits = inference.forward(inference.collate(dataset.graphs[:3]))
        assert not logits.requires_grad

    def test_unknown_framework_rejected(self, config):
        with pytest.raises(ValueError):
            InferenceModel("tfx", build("pygx", config), config, "enzymes")


class TestModelRegistry:
    @pytest.mark.parametrize("framework", ["pygx", "dglx"])
    def test_checkpoint_roundtrip_matches_source_model(
        self, framework, dataset, config, tmp_path
    ):
        model = build(framework, config, seed=3)
        path = tmp_path / checkpoint_name(framework, "gcn", "enzymes")
        save_checkpoint(model, path)

        registry = ModelRegistry()
        registry.register_checkpoint(framework, "gcn", "enzymes", path, config=config)
        inference = registry.get(framework, "gcn", "enzymes")

        model.eval()
        with no_grad():
            expected = np.argmax(model(inference.collate(dataset.graphs[:6])).data, axis=1)
        np.testing.assert_array_equal(_predict(inference, dataset.graphs[:6]), expected)

    def test_lazy_load_cached(self, dataset, config, tmp_path):
        path = tmp_path / "m.npz"
        save_checkpoint(build("pygx", config), path)
        registry = ModelRegistry()
        registry.register_checkpoint("pygx", "gcn", "enzymes", path, config=config)
        assert registry.get("pygx", "gcn", "enzymes") is registry.get("pygx", "gcn", "enzymes")

    def test_unknown_key_lists_known(self, config, tmp_path):
        path = tmp_path / "m.npz"
        save_checkpoint(build("pygx", config), path)
        registry = ModelRegistry()
        registry.register_checkpoint("pygx", "gcn", "enzymes", path, config=config)
        assert registry.get("pygx", "GCN", "ENZYMES") is registry.get("pygx", "gcn", "enzymes")
        with pytest.raises(KeyError, match="pygx"):
            registry.get("dglx", "gcn", "enzymes")

    def test_contains_and_len(self, config, tmp_path):
        registry = ModelRegistry()
        assert ("pygx", "gcn", "enzymes") not in registry
        path = tmp_path / "p.npz"
        save_checkpoint(build("pygx", config), path)
        registry.register_checkpoint("pygx", "gcn", "enzymes", path, config=config)
        path = tmp_path / "d.npz"
        save_checkpoint(build("dglx", config), path)
        registry.register_checkpoint("dglx", "gcn", "enzymes", path, config=config)
        assert ("pygx", "gcn", "enzymes") in registry
        assert ("dglx", "gcn", "enzymes") in registry
        assert len(registry) == 2
