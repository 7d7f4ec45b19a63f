"""Result record aggregation logic."""

import pytest

from repro.train.results import EpochRecord, ExperimentResult, RunResult


def record(epoch, train=0.1, eval_=0.05, phases=None, loss=1.0):
    return EpochRecord(
        epoch=epoch,
        train_time=train,
        eval_time=eval_,
        phase_times=phases or {"forward": train / 2, "backward": train / 2},
        train_loss=loss,
        val_loss=loss,
        val_acc=0.5,
    )


class TestRunResult:
    def test_mean_epoch_time(self):
        run = RunResult(test_acc=0.5, epochs=[record(0, 0.1), record(1, 0.3)])
        assert run.mean_epoch_time == pytest.approx(0.2)

    def test_mean_full_epoch_includes_eval(self):
        run = RunResult(test_acc=0.5, epochs=[record(0, 0.1, 0.05)])
        assert run.mean_full_epoch_time == pytest.approx(0.15)

    def test_empty_run_is_zero(self):
        run = RunResult(test_acc=0.0)
        assert run.mean_epoch_time == 0.0
        assert run.mean_full_epoch_time == 0.0
        assert run.mean_phase_times() == {}

    def test_mean_phase_times_union_of_keys(self):
        run = RunResult(
            test_acc=0.5,
            epochs=[
                record(0, phases={"forward": 1.0}),
                record(1, phases={"backward": 2.0}),
            ],
        )
        phases = run.mean_phase_times()
        assert phases["forward"] == pytest.approx(0.5)
        assert phases["backward"] == pytest.approx(1.0)

    def test_mean_phase_times_in_first_seen_order(self):
        """Key order is the first epoch's phase order, then later-only
        phases — never a hash-seed-dependent set order."""
        run = RunResult(
            test_acc=0.5,
            epochs=[
                record(0, phases={"data_loading": 1.0, "forward": 1.0, "update": 1.0}),
                record(1, phases={"comm": 1.0, "forward": 1.0, "backward": 1.0}),
            ],
        )
        assert list(run.mean_phase_times()) == [
            "data_loading", "forward", "update", "comm", "backward",
        ]

    def test_n_epochs(self):
        assert RunResult(test_acc=0.1, epochs=[record(0)]).n_epochs == 1


class TestExperimentResult:
    def test_from_runs_aggregates_accuracy_and_times(self):
        runs = [
            RunResult(test_acc=0.4, epochs=[record(0, 0.1)], total_time=1.0),
            RunResult(test_acc=0.6, epochs=[record(0, 0.3)], total_time=3.0),
        ]
        result = ExperimentResult.from_runs(
            "pygx", "gcn", "Cora", runs, epoch_times=[r.mean_epoch_time for r in runs]
        )
        assert result.acc_mean == pytest.approx(0.5)
        assert result.acc_std == pytest.approx(0.1)
        assert result.epoch_time == pytest.approx(0.2)
        assert result.total_time == pytest.approx(2.0)
        assert result.runs is runs
