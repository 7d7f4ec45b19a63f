"""Result records produced by the trainers and consumed by the benches."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np


@dataclass
class EpochRecord:
    """Simulated timing of one training epoch."""

    epoch: int
    train_time: float
    eval_time: float
    phase_times: Dict[str, float]
    train_loss: float
    val_loss: float
    val_acc: float


@dataclass
class RunResult:
    """Outcome of one training run (one seed or one fold)."""

    test_acc: float
    epochs: List[EpochRecord] = field(default_factory=list)
    peak_memory: int = 0
    gpu_utilization: float = 0.0
    total_time: float = 0.0

    @property
    def n_epochs(self) -> int:
        return len(self.epochs)

    @property
    def mean_epoch_time(self) -> float:
        """Mean simulated train-time per epoch (the paper's 'Epoch' column)."""
        if not self.epochs:
            return 0.0
        return sum(e.train_time for e in self.epochs) / len(self.epochs)

    @property
    def mean_full_epoch_time(self) -> float:
        """Mean train + validation time per epoch.

        The node-classification pipelines the paper follows time an "epoch"
        as one training pass plus the per-epoch validation evaluation, so
        Table IV uses this; the graph-classification breakdown (Fig. 1/2)
        uses the train-only :attr:`mean_epoch_time`.
        """
        if not self.epochs:
            return 0.0
        return sum(e.train_time + e.eval_time for e in self.epochs) / len(self.epochs)

    def mean_phase_times(self) -> Dict[str, float]:
        """Per-phase mean time per epoch (Fig. 1/2 series).

        Keys come in first-seen order — the first epoch's phases, then any
        phase only a later epoch entered — so the dict iterates and
        serialises identically in every process.
        """
        keys = dict.fromkeys(k for e in self.epochs for k in e.phase_times)
        return {
            k: sum(e.phase_times.get(k, 0.0) for e in self.epochs) / len(self.epochs)
            for k in keys
        }


@dataclass
class ExperimentResult:
    """Aggregate over seeds/folds: one cell of Table IV or Table V."""

    framework: str
    model: str
    dataset: str
    acc_mean: float
    acc_std: float
    epoch_time: float
    total_time: float
    runs: List[RunResult] = field(default_factory=list)

    @classmethod
    def from_runs(
        cls,
        framework: str,
        model: str,
        dataset: str,
        runs: List[RunResult],
        epoch_times: Sequence[float],
    ) -> "ExperimentResult":
        """Aggregate ``runs``; ``epoch_times`` is each run's "Epoch" figure
        (train-only for Table V, train + validation for Table IV)."""
        accs = np.array([r.test_acc for r in runs])
        return cls(
            framework=framework,
            model=model,
            dataset=dataset,
            acc_mean=float(accs.mean()),
            acc_std=float(accs.std()),
            epoch_time=float(np.mean(epoch_times)),
            total_time=float(np.mean([r.total_time for r in runs])),
            runs=runs,
        )
