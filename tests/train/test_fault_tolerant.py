"""Fault-tolerant training: checkpoint/resume reproduces the fault-free run.

The acceptance bar for the fault subsystem: a run interrupted by injected
OOMs / kernel faults and resumed from its end-of-epoch snapshots must
produce a *bitwise identical* loss curve, accuracy curve and test accuracy
to the run that never faulted — on both framework packs, eager and
compiled.  Faults may only cost simulated time.
"""

import dataclasses

import numpy as np
import pytest

from repro.datasets import enzymes
from repro.device import Device
from repro.faults import FaultPlan
from repro.train import GraphClassificationTrainer

MAX_EPOCHS = 4


@pytest.fixture(scope="module")
def dataset():
    return enzymes(seed=0, num_graphs=60)


@pytest.fixture(scope="module")
def splits(dataset):
    order = np.random.default_rng(0).permutation(len(dataset))
    return order[:40], order[40:50], order[50:]


def _trainer(framework, dataset, **kwargs):
    return GraphClassificationTrainer(
        framework, "gcn", dataset, batch_size=16,
        max_epochs=MAX_EPOCHS, device=Device(), **kwargs,
    )


def _curve(result):
    """The numerics a resumed run must reproduce exactly."""
    return [
        (r.epoch, r.train_loss, r.val_loss, r.val_acc) for r in result.epochs
    ] + [("test_acc", result.test_acc, None, None)]


class TestCheckpointResume:
    def test_run_state_written_after_every_epoch(self, dataset, splits, tmp_path):
        path = tmp_path / "state.npz"
        _trainer("pygx", dataset).run_fold(*splits, seed=0, state_path=path)
        assert path.exists()

    def test_resume_from_partial_run_matches_uninterrupted(
        self, dataset, splits, tmp_path
    ):
        """Stop after 2 epochs, resume for the rest: same curve bitwise."""
        path = tmp_path / "state.npz"
        full = _trainer("pygx", dataset).run_fold(*splits, seed=0)

        first = _trainer("pygx", dataset)
        first.max_epochs = 2
        first.run_fold(*splits, seed=0, state_path=path)
        resumed = _trainer("pygx", dataset).run_fold(
            *splits, seed=0, state_path=path, resume=True
        )
        assert _curve(resumed) == _curve(full)

    def test_resume_without_file_starts_fresh(self, dataset, splits, tmp_path):
        path = tmp_path / "missing.npz"
        result = _trainer("pygx", dataset).run_fold(
            *splits, seed=0, state_path=path, resume=True
        )
        assert len(result.epochs) == MAX_EPOCHS
        assert path.exists()


class TestFaultTolerantRun:
    @pytest.mark.parametrize("framework", ["pygx", "dglx"])
    def test_faulted_run_bitwise_matches_fault_free(
        self, framework, dataset, splits, tmp_path
    ):
        baseline = _trainer(framework, dataset).run_fold(*splits, seed=0)

        plan = FaultPlan(seed=2, oom_rate=0.001, kernel_fault_rate=0.001)
        faulted = _trainer(framework, dataset).run_fold_fault_tolerant(
            *splits, seed=0, fault_plan=plan,
            state_path=tmp_path / "state.npz",
        )
        # The test only bites if faults actually interrupted the run.
        assert faulted.restarts > 0
        stats = faulted.fault_stats
        assert stats.ooms_injected + stats.kernel_faults_injected >= faulted.restarts
        assert _curve(faulted.result) == _curve(baseline)

    def test_compiled_faulted_run_matches_eager_fault_free(
        self, dataset, splits, tmp_path
    ):
        """Compile fallback-on-fault parity: capture/replay under injected
        faults still reproduces the eager fault-free numerics exactly."""
        baseline = _trainer("pygx", dataset).run_fold(*splits, seed=0)
        plan = FaultPlan(seed=2, oom_rate=0.001, kernel_fault_rate=0.001)
        faulted = _trainer("pygx", dataset, compile=True).run_fold_fault_tolerant(
            *splits, seed=0, fault_plan=plan,
            state_path=tmp_path / "state.npz",
        )
        assert faulted.restarts > 0
        assert _curve(faulted.result) == _curve(baseline)

    def test_no_plan_still_checkpoints(self, dataset, splits, tmp_path):
        run = _trainer("pygx", dataset).run_fold_fault_tolerant(
            *splits, seed=0, state_path=tmp_path / "state.npz"
        )
        assert run.restarts == 0
        assert run.fault_stats is None
        assert len(run.result.epochs) == MAX_EPOCHS

    def test_state_path_required(self, dataset, splits):
        with pytest.raises(ValueError, match="state_path"):
            _trainer("pygx", dataset).run_fold_fault_tolerant(*splits, seed=0)

    def test_restart_budget_enforced(self, dataset, splits, tmp_path):
        """An unrecoverable fault storm eventually surfaces the error."""
        from repro.faults import FaultError
        from repro.device import OutOfMemoryError

        plan = FaultPlan(seed=0, kernel_fault_rate=0.5)
        with pytest.raises((FaultError, OutOfMemoryError)):
            _trainer("pygx", dataset).run_fold_fault_tolerant(
                *splits, seed=0, fault_plan=plan,
                state_path=tmp_path / "state.npz", max_restarts=2,
            )

    def test_two_faulted_invocations_identical(self, dataset, splits, tmp_path):
        """Same plan, same seed, same workload: same run, same scars."""
        plan = FaultPlan(seed=2, oom_rate=0.001, kernel_fault_rate=0.001)
        runs = []
        for tag in ("a", "b"):
            run = _trainer("pygx", dataset).run_fold_fault_tolerant(
                *splits, seed=0, fault_plan=plan,
                state_path=tmp_path / f"state_{tag}.npz",
            )
            runs.append(run)
        assert runs[0].restarts == runs[1].restarts
        assert dataclasses.asdict(runs[0].fault_stats) == dataclasses.asdict(
            runs[1].fault_stats
        )
        assert _curve(runs[0].result) == _curve(runs[1].result)
