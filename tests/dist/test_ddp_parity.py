"""DDP parity: world_size=1 bitwise, grad accumulation to float tolerance."""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.device import Device, use_device
from repro.dist import BatchConfig, Communicator, DistributedDataParallel, collect_grads
from repro.models import graph_config
from repro.nn import cross_entropy
from repro.packs import get_pack
from repro.train import DDPTrainer, GraphClassificationTrainer


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("mnist", num_graphs=96)


SPLIT = (np.arange(64), np.arange(64, 80), np.arange(80, 96))


def _baseline(framework, dataset, compiled):
    trainer = GraphClassificationTrainer(
        framework, "gcn", dataset, batch_size=16, max_epochs=2,
        device=Device(), compile=compiled,
    )
    return trainer.run_fold(*SPLIT, seed=0)


def _ddp(framework, dataset, batch, compiled=False, prefetch=False,
         model="gcn", max_epochs=2):
    trainer = DDPTrainer(
        framework, model, dataset, batch, max_epochs=max_epochs,
        device=Device(), compile=compiled, prefetch=prefetch,
    )
    return trainer.run_fold(*SPLIT, seed=0), trainer


class TestWorldSizeOneBitwise:
    """DDP at world_size=1 is the single-device trainer, bit for bit."""

    @pytest.mark.parametrize("framework", ["pygx", "dglx"])
    @pytest.mark.parametrize("compiled", [False, True])
    def test_losses_bitwise_identical(self, dataset, framework, compiled):
        base = _baseline(framework, dataset, compiled)
        ddp, _ = _ddp(framework, dataset, BatchConfig(16), compiled=compiled)
        assert [e.train_loss for e in base.epochs] == [
            e.train_loss for e in ddp.epochs
        ]
        assert [e.val_loss for e in base.epochs] == [
            e.val_loss for e in ddp.epochs
        ]
        assert base.test_acc == ddp.test_acc

    @pytest.mark.parametrize("framework", ["pygx", "dglx"])
    def test_eager_timing_also_identical(self, dataset, framework):
        # With no hooks, no comm streams and no extra ops, even the
        # simulated wall time matches the single-device trainer exactly.
        base = _baseline(framework, dataset, compiled=False)
        ddp, trainer = _ddp(framework, dataset, BatchConfig(16))
        assert ddp.total_time == base.total_time
        assert trainer.communicator.stats.collectives == 0
        assert trainer.ddp.buckets == []


class TestGradAccumulation:
    @pytest.mark.parametrize("framework", ["pygx", "dglx"])
    def test_accumulated_micros_match_full_batch_gradients(self, dataset, framework):
        """BatchConfig(micro=k) gradient == full-batch gradient (float tol)."""
        cfg = graph_config("gcn", in_dim=dataset.num_features,
                           n_classes=dataset.num_classes)
        graphs = dataset.graphs[:32]
        pack = get_pack(framework)
        with use_device(Device()):
            model = pack.build_model(cfg, np.random.default_rng(0))
            named = list(model.named_parameters())

            def batches(batch_size):
                loader = pack.graph_loader(graphs, batch_size)
                return [pack.unpack(item) for item in loader]

            model.zero_grad()
            ((inputs, labels),) = batches(32)
            cross_entropy(model(inputs), labels).backward()
            full = collect_grads(named)

            model.zero_grad()
            accum = BatchConfig(micro_batch_size=8, grad_accumulation=4)
            for inputs, labels in batches(accum.micro_batch_size):
                loss = cross_entropy(model(inputs), labels)
                (loss * (1.0 / accum.grad_accumulation)).backward()
            accumulated = collect_grads(named)

        assert set(full) == set(accumulated)
        for name in full:
            np.testing.assert_allclose(accumulated[name], full[name],
                                       rtol=1e-4, atol=1e-6)

    def test_trainer_accum_loss_close_to_full_batch_loss(self, dataset):
        full, _ = _ddp("pygx", dataset, BatchConfig(16))
        accum, _ = _ddp("pygx", dataset,
                        BatchConfig(micro_batch_size=4, grad_accumulation=4))
        for a, b in zip(full.epochs, accum.epochs):
            assert a.train_loss == pytest.approx(b.train_loss, rel=1e-3)
            assert a.val_loss == pytest.approx(b.val_loss, rel=1e-3)


class TestMultiReplicaNumerics:
    @pytest.mark.parametrize("framework", ["pygx", "dglx"])
    def test_replicated_training_tracks_single_device(self, dataset, framework):
        """Same global batch across 1 vs 4 replicas: same loss trajectory
        to float tolerance (the sum over a shuffled global batch is merely
        reassociated, never a different set of samples)."""
        single, _ = _ddp(framework, dataset, BatchConfig(16))
        multi, _ = _ddp(framework, dataset,
                        BatchConfig.for_global_batch(16, replicas=4))
        for a, b in zip(single.epochs, multi.epochs):
            assert b.train_loss == pytest.approx(a.train_loss, rel=0.05)
        assert multi.epochs[-1].val_loss == pytest.approx(
            single.epochs[-1].val_loss, rel=0.05)

    def test_ddp_wrapper_grads_equal_fixed_order_mean(self, dataset):
        """The bucketed hook path reproduces the canonical per-parameter
        mean of per-replica gradients, bitwise."""
        cfg = graph_config("gcn", in_dim=dataset.num_features,
                           n_classes=dataset.num_classes)
        world = 3
        with use_device(Device()):
            model = get_pack("pygx").build_model(cfg, np.random.default_rng(0))
            named = list(model.named_parameters())
            comm = Communicator(world)
            ddp = DistributedDataParallel(model, comm, bucket_bytes=4096)

            from repro.pygx import DataLoader

            loader = DataLoader(dataset.graphs[:48], 16)
            shards = [(b, b.y) for b in loader]
            per_replica = []
            for inputs, labels in shards:
                model.zero_grad()
                with ddp.no_sync():
                    cross_entropy(model(inputs), labels).backward()
                per_replica.append(collect_grads(named))

            for rank in (1, 2):
                ddp.stage_remote_grads(rank, per_replica[rank])
            model.zero_grad()
            inputs, labels = shards[0]
            cross_entropy(model(inputs), labels).backward()
            ddp.finish_backward()

            for name, param in named:
                stack = [per_replica[0][name],
                         per_replica[1][name], per_replica[2][name]]
                acc = stack[0].astype(np.float32).copy()
                acc += stack[1]
                acc += stack[2]
                acc /= np.float32(world)
                assert np.array_equal(param.grad, acc), name
            assert comm.stats.collectives == len(ddp.buckets)

    def test_missing_staged_grads_is_an_error(self, dataset):
        cfg = graph_config("gcn", in_dim=dataset.num_features,
                           n_classes=dataset.num_classes)
        with use_device(Device()):
            model = get_pack("pygx").build_model(cfg, np.random.default_rng(0))
            ddp = DistributedDataParallel(model, Communicator(2))
            from repro.pygx import DataLoader

            batch = next(iter(DataLoader(dataset.graphs[:8], 8)))
            with pytest.raises(RuntimeError, match="staged"):
                cross_entropy(model(batch), batch.y).backward()
