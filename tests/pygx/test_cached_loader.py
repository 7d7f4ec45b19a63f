"""CachedDataLoader: collate-once semantics and cost behaviour."""

import numpy as np
import pytest

from repro.datasets import enzymes
from repro.device import current_device
from repro.pygx.cached_loader import CachedDataLoader


@pytest.fixture()
def graphs():
    return enzymes(seed=0, num_graphs=24).graphs


class TestCachedLoader:
    def test_same_batches_every_epoch(self, graphs):
        loader = CachedDataLoader(graphs, batch_size=8, rng=np.random.default_rng(0))
        first = [b.y.copy() for b in loader]
        second = [b.y.copy() for b in loader]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_replay_reuses_objects(self, graphs):
        loader = CachedDataLoader(graphs, batch_size=8, rng=np.random.default_rng(0))
        first = list(loader)
        second = list(loader)
        assert all(a is b for a, b in zip(first, second))

    def test_second_epoch_much_cheaper(self, graphs, fresh_device):
        loader = CachedDataLoader(graphs, batch_size=8, rng=np.random.default_rng(0))
        clock = fresh_device.clock
        t0 = clock.elapsed
        list(loader)
        first_epoch = clock.elapsed - t0
        t0 = clock.elapsed
        list(loader)
        second_epoch = clock.elapsed - t0
        assert second_epoch < 0.1 * first_epoch

    def test_len(self, graphs):
        assert len(CachedDataLoader(graphs, batch_size=10)) == 3

    def test_abandoned_first_pass_is_not_replayed(self):
        """A first pass stopped partway is collated again, not replayed as
        the epoch: every later epoch still yields every graph."""
        graphs = enzymes(seed=0, num_graphs=40).graphs
        loader = CachedDataLoader(graphs, batch_size=8, rng=np.random.default_rng(0))
        assert len(loader) == 5
        partial = iter(loader)
        next(partial)
        next(partial)
        for _ in range(2):
            epoch = list(loader)
            assert len(epoch) == len(loader)
            assert sum(b.num_graphs for b in epoch) == 40
        assert all(a is b for a, b in zip(epoch, loader))

    def test_invalid_batch_size(self, graphs):
        with pytest.raises(ValueError):
            CachedDataLoader(graphs, batch_size=0)


class TestOverlapProjection:
    def test_projection_math(self):
        from repro.bench.overlap import project_overlap
        from repro.train.results import EpochRecord, RunResult

        run = RunResult(
            test_acc=0.5,
            epochs=[
                EpochRecord(
                    epoch=0,
                    train_time=1.0,
                    eval_time=0.0,
                    phase_times={"data_loading": 0.6, "forward": 0.4},
                    train_loss=1.0,
                    val_loss=1.0,
                    val_acc=0.5,
                )
            ],
        )
        proj = project_overlap(run)
        assert proj.serial_epoch == pytest.approx(1.0)
        assert proj.overlapped_epoch == pytest.approx(0.6)
        assert proj.speedup == pytest.approx(1.0 / 0.6)

    @staticmethod
    def _run(train_time, phases):
        from repro.train.results import EpochRecord, RunResult

        return RunResult(
            test_acc=0.5,
            epochs=[
                EpochRecord(
                    epoch=0,
                    train_time=train_time,
                    eval_time=0.0,
                    phase_times=phases,
                    train_loss=1.0,
                    val_loss=1.0,
                    val_acc=0.5,
                )
            ],
        )

    def test_zero_device_time_epoch_is_pure_loading(self):
        """All loading, nothing to hide behind: overlap buys nothing."""
        from repro.bench.overlap import project_overlap

        proj = project_overlap(self._run(0.7, {"data_loading": 0.7}))
        assert proj.overlapped_epoch == pytest.approx(0.7)
        assert proj.speedup == pytest.approx(1.0)

    def test_loading_dominated_epoch_bounded_by_loading(self):
        from repro.bench.overlap import project_overlap

        proj = project_overlap(
            self._run(1.0, {"data_loading": 0.9, "forward": 0.1})
        )
        assert proj.overlapped_epoch == pytest.approx(0.9)
        assert proj.speedup == pytest.approx(1.0 / 0.9)

    def test_no_loading_epoch_unchanged(self):
        from repro.bench.overlap import project_overlap

        proj = project_overlap(self._run(1.0, {"forward": 1.0}))
        assert proj.overlapped_epoch == pytest.approx(1.0)
        assert proj.speedup == pytest.approx(1.0)

    def test_zero_epoch_degenerate_speedup_is_one(self):
        from repro.bench.overlap import project_overlap

        proj = project_overlap(self._run(0.0, {}))
        assert proj.overlapped_epoch == 0.0
        assert proj.speedup == 1.0
