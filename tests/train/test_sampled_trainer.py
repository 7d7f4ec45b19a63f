"""SampledNodeTrainer: determinism, phase breakdown, stack composition."""

import numpy as np
import pytest

from repro.packs import get_pack
from repro.scale import full_graph_training_memory_floor, make_scale_dataset
from repro.train import SampledNodeTrainer


@pytest.fixture(scope="module")
def dataset():
    return make_scale_dataset(
        1200, avg_degree=6.0, n_classes=4, n_features=16, seed=0,
        self_loops=True,
    )


def make_trainer(dataset, framework="pygx", model="gcn", **kwargs):
    kwargs.setdefault("fanouts", (5, 5))
    kwargs.setdefault("batch_size", 64)
    kwargs.setdefault("max_epochs", 2)
    return SampledNodeTrainer(framework, model, dataset, **kwargs)


class TestRun:
    @pytest.mark.parametrize("framework", ["pygx", "dglx"])
    def test_trains_and_reports(self, dataset, framework):
        result = make_trainer(dataset, framework).run(seed=0)
        assert len(result.epochs) == 2
        assert 0.0 <= result.test_acc <= 1.0
        assert result.peak_memory > 0
        assert result.total_time > 0

    @pytest.mark.parametrize("framework", ["pygx", "dglx"])
    def test_deterministic(self, dataset, framework):
        a = make_trainer(dataset, framework).run(seed=3)
        b = make_trainer(dataset, framework).run(seed=3)
        assert a.test_acc == b.test_acc
        for ea, eb in zip(a.epochs, b.epochs):
            assert ea.train_loss == eb.train_loss
            assert ea.val_acc == eb.val_acc

    def test_seed_changes_run(self, dataset):
        a = make_trainer(dataset).run(seed=0)
        b = make_trainer(dataset).run(seed=1)
        assert a.epochs[0].train_loss != b.epochs[0].train_loss

    @pytest.mark.parametrize("framework", ["pygx", "dglx"])
    def test_sampling_phase_reported(self, dataset, framework):
        result = make_trainer(dataset, framework).run(seed=0)
        phases = result.epochs[0].phase_times
        # The large-graph breakdown: sampler time is attributed apart
        # from collation/H2D and the compute phases.
        assert phases.get("sampling", 0.0) > 0.0
        assert phases.get("data_loading", 0.0) > 0.0
        assert phases.get("forward", 0.0) > 0.0

    def test_max_batches_trims_epoch(self, dataset):
        full = make_trainer(dataset, max_epochs=1).run(seed=0)
        trimmed = make_trainer(dataset, max_epochs=1, max_batches=1).run(seed=0)
        assert trimmed.epochs[0].train_time < full.epochs[0].train_time

    def test_peak_memory_below_full_graph_floor(self, dataset):
        trainer = make_trainer(dataset)
        result = trainer.run(seed=0)
        floor = full_graph_training_memory_floor(
            dataset.graph.num_nodes, dataset.graph.num_edges, trainer.config
        )
        assert result.peak_memory < floor

    def test_sampled_accuracy_helper(self, dataset):
        trainer = make_trainer(dataset, max_epochs=3)
        trainer.run(seed=0)
        acc = trainer.sampled_accuracy(trainer.final_model, dataset.test_idx)
        assert 0.0 <= acc <= 1.0


class TestStackComposition:
    @pytest.mark.parametrize("framework", ["pygx", "dglx"])
    def test_compile_replays_and_matches_eager(self, dataset, framework):
        eager = make_trainer(dataset, framework).run(seed=0)
        trainer = make_trainer(dataset, framework, compile=True)
        compiled = trainer.run(seed=0)
        stats = trainer.compiled_step.stats
        # Sampled batches vary in node count; structural-signature
        # bucketing must still replay rather than recapture every step.
        assert stats.replays > 0
        assert compiled.test_acc == eager.test_acc
        for ea, eb in zip(eager.epochs, compiled.epochs):
            assert ea.train_loss == pytest.approx(eb.train_loss, rel=1e-6)

    @pytest.mark.parametrize("framework", ["pygx", "dglx"])
    def test_prefetch_preserves_numerics(self, dataset, framework):
        serial = make_trainer(dataset, framework).run(seed=0)
        piped = make_trainer(dataset, framework, prefetch=True).run(seed=0)
        assert piped.test_acc == serial.test_acc
        for ea, eb in zip(serial.epochs, piped.epochs):
            assert ea.train_loss == eb.train_loss

    def test_full_graph_norm_flags_flow_to_loader(self, dataset):
        loader = get_pack("pygx").neighbor_loader(
            dataset.graph, dataset.train_idx, (5, 5), 32, shuffle=False, rng=0,
            ensure_self_loops=True, full_graph_norm=True,
        )
        assert loader.ensure_self_loops and loader.full_graph_norm
        plain = make_trainer(dataset).run(seed=0)
        flagged = make_trainer(dataset, ensure_self_loops=True,
                               full_graph_norm=True).run(seed=0)
        assert 0.0 <= flagged.test_acc <= 1.0
        # The trainer's flags reach its loaders: the batches differ.
        assert flagged.epochs[0].train_loss != plain.epochs[0].train_loss


class TestValidation:
    def test_unknown_framework(self, dataset):
        with pytest.raises(ValueError):
            SampledNodeTrainer("tf", "gcn", dataset)

    def test_fanout_depth_mismatch(self, dataset):
        from repro.models import node_config

        config = node_config("gcn", in_dim=dataset.num_features,
                             n_classes=dataset.num_classes, n_layers=3)
        with pytest.raises(ValueError):
            SampledNodeTrainer("pygx", "gcn", dataset, fanouts=(5, 5),
                               config=config)
