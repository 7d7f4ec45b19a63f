"""Mini-batch graph classification training (Table V protocol).

Section IV-B: ENZYMES/DD, stratified 10-fold cross-validation (8:1:1),
Adam with ReduceLROnPlateau (factor 0.5, patience 25), training stops when
the LR decays to ``min_lr`` (1e-6) or the epoch cap is hit, batch size 128,
mean readout + MLP classifier.

Every epoch is phase-instrumented (data loading / forward / backward /
update / other), which regenerates the breakdown of Fig. 1 and Fig. 2
directly from the simulated clock.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

import numpy as np

from repro.datasets.base import GraphClassificationDataset
from repro.datasets.splits import kfold_splits
from repro.device import Device, OutOfMemoryError
from repro.models import ModelConfig, graph_config
from repro.nn import accuracy, cross_entropy
from repro.optim import ReduceLROnPlateau
from repro.packs import get_pack
from repro.tensor import no_grad
from repro.train.checkpoint import PathLike, load_run_state, save_run_state
from repro.train.loop import Protocol, run_epochs, train_step
from repro.train.results import ExperimentResult, RunResult


@dataclass
class FaultTolerantRun:
    """A :meth:`run_fold_fault_tolerant` outcome: the run plus its scars."""

    result: RunResult
    #: How many times a fault aborted an epoch and training resumed from
    #: the last checkpoint.
    restarts: int
    #: The :class:`~repro.faults.FaultStats` of the injector, if one ran.
    fault_stats: Optional[Any] = None


class GraphClassificationTrainer:
    """Trains one (framework, model) pair on a TU-style dataset."""

    def __init__(
        self,
        framework: str,
        model_name: str,
        dataset: GraphClassificationDataset,
        batch_size: int = 128,
        max_epochs: int = 1000,
        config: Optional[ModelConfig] = None,
        device: Optional[Device] = None,
        compile: bool = False,
        prefetch: bool = False,
    ) -> None:
        self.pack = get_pack(framework)
        self.framework = framework
        self.model_name = model_name
        self.dataset = dataset
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.config = config or graph_config(
            model_name, in_dim=dataset.num_features, n_classes=dataset.num_classes
        )
        self.device = device or Device()
        #: Capture-and-replay the per-batch train step through
        #: ``repro.compile`` (fewer kernel launches, fused schedule).
        self.compile = compile
        #: Pipeline batch collation behind compute with the framework's
        #: ``PrefetchDataLoader`` (Section IV-D's overlap, executed).
        #: Numerics are identical either way; only epoch time changes.
        self.prefetch = prefetch
        #: The :class:`~repro.compile.CompiledStep` of the most recent
        #: :meth:`run_fold` call when ``compile=True`` (for its stats).
        self.compiled_step = None
        #: The trained network from the most recent :meth:`run_fold` call —
        #: the parameters "at the end of training" that Section IV-B.2
        #: evaluates, and what gets checkpointed for serving.
        self.final_model = None

    # ------------------------------------------------------------------
    def _loader(self, graphs, shuffle: bool, rng: np.random.Generator):
        loader = self.pack.graph_loader(graphs, self.batch_size, shuffle=shuffle, rng=rng)
        return self.pack.prefetch(loader) if self.prefetch else loader

    def _evaluate(self, model, loader) -> Tuple[float, float]:
        """(loss, accuracy) over a loader, gradient-free."""
        model.eval()
        losses, accs, weights = [], [], []
        with no_grad():
            for inputs, labels in map(self.pack.unpack, loader):
                logits = model(inputs)
                losses.append(cross_entropy(logits, labels).item())
                accs.append(accuracy(logits, labels))
                weights.append(len(labels))
        total = float(np.sum(weights)) or 1.0
        loss = float(np.dot(losses, weights) / total)
        acc = float(np.dot(accs, weights) / total)
        return loss, acc

    def _train_protocol(
        self, model, optimizer, graphs, rng: np.random.Generator
    ) -> Tuple[Callable, Callable]:
        """``(batches, step)`` of the single-device protocol: one shuffled
        pass over ``graphs`` per epoch, one optimizer step per batch."""
        loader = self._loader(graphs, shuffle=True, rng=rng)
        step = train_step(
            model, optimizer, self.device.clock, cross_entropy, compile=self.compile
        )
        self.compiled_step = step if self.compile else None
        return (lambda epoch: map(self.pack.unpack, loader)), step

    # ------------------------------------------------------------------
    def run_fold(
        self,
        train_idx: np.ndarray,
        val_idx: np.ndarray,
        test_idx: np.ndarray,
        seed: int = 0,
        state_path: Optional[PathLike] = None,
        resume: bool = False,
    ) -> RunResult:
        """Train on one CV fold; returns per-epoch records and test acc.

        With ``state_path`` set, the full run state (model, optimizer,
        LR schedule, RNG stream, per-epoch records) is checkpointed there
        after every epoch — and once up front, so even an epoch-0 fault
        has something to resume from.  ``resume=True`` restores that
        snapshot (if the file exists) and continues from the next epoch,
        reproducing the uninterrupted run bitwise.
        """
        return self._train(
            train_idx, val_idx, test_idx, seed, self.max_epochs, state_path, resume
        )

    def _train(
        self, train_idx, val_idx, test_idx, seed, max_epochs, state_path=None, resume=False
    ) -> RunResult:
        ds = self.dataset

        def protocol(model, optimizer, rng):
            self.final_model = model
            scheduler = ReduceLROnPlateau(
                optimizer,
                factor=self.config.lr_reduce_factor,
                patience=self.config.lr_patience,
            )
            batches, step = self._train_protocol(model, optimizer, ds.subset(train_idx), rng)
            val_loader = self._loader(ds.subset(val_idx), shuffle=False, rng=rng)
            test_loader = self._loader(ds.subset(test_idx), shuffle=False, rng=rng)

            def stop(val_loss):
                scheduler.step(val_loss)
                # The paper's stopping rule: LR decayed to 1e-6.
                return optimizer.lr <= self.config.min_lr

            state, checkpoint = None, None
            if state_path is not None:
                if resume and os.path.exists(state_path):
                    state = load_run_state(state_path, model, optimizer, scheduler, rng)
                else:
                    save_run_state(state_path, model, optimizer, scheduler, rng, epoch=-1)

                def checkpoint(epoch, records, stopped):
                    save_run_state(
                        state_path, model, optimizer, scheduler, rng,
                        epoch=epoch, records=records, stopped=stopped,
                    )

            return Protocol(
                batches=batches,
                step=step,
                evaluate=lambda epoch: self._evaluate(model, val_loader),
                test=lambda epoch: self._evaluate(model, test_loader)[1],
                stop=stop,
                resume=state,
                checkpoint=checkpoint,
            )

        return run_epochs(self.device, self.pack, self.config, seed, max_epochs, protocol)

    # ------------------------------------------------------------------
    def run_fold_fault_tolerant(
        self,
        train_idx: np.ndarray,
        val_idx: np.ndarray,
        test_idx: np.ndarray,
        seed: int = 0,
        fault_plan=None,
        state_path: Optional[PathLike] = None,
        max_restarts: int = 100,
    ) -> FaultTolerantRun:
        """Run one fold to completion despite injected (or real) faults.

        Wraps :meth:`run_fold` with checkpoint/resume: any
        :class:`~repro.device.OutOfMemoryError` or
        :class:`~repro.faults.FaultError` that escapes an epoch rolls the
        run back to the last end-of-epoch snapshot at ``state_path`` and
        retries.  Because the snapshot restores optimizer and RNG state
        exactly, the final loss curve and test accuracy are bitwise
        identical to a fault-free run — faults cost simulated time, never
        numerics.

        ``fault_plan`` is an optional :class:`~repro.faults.FaultPlan`;
        one injector (one decision stream) spans all restart attempts, so
        a deterministic fault cannot re-fire at the same point forever.
        """
        from repro.faults import FaultError

        if state_path is None:
            raise ValueError("run_fold_fault_tolerant needs a state_path to checkpoint to")
        injector = fault_plan.start() if fault_plan is not None else None
        restarts = 0
        while True:
            try:
                with self.device.injecting(injector) if injector is not None else nullcontext():
                    result = self.run_fold(
                        train_idx, val_idx, test_idx, seed=seed,
                        state_path=state_path, resume=restarts > 0,
                    )
                return FaultTolerantRun(
                    result=result,
                    restarts=restarts,
                    fault_stats=injector.stats if injector is not None else None,
                )
            except (OutOfMemoryError, FaultError):
                restarts += 1
                if restarts > max_restarts:
                    raise

    # ------------------------------------------------------------------
    def cross_validate(
        self,
        n_folds: int = 10,
        seed: int = 0,
        max_folds: Optional[int] = None,
    ) -> ExperimentResult:
        """Stratified k-fold CV (Table V).  ``max_folds`` trims for benches."""
        splits = kfold_splits(self.dataset.labels, n_folds, np.random.default_rng(seed))
        if max_folds is not None:
            splits = splits[:max_folds]
        runs = [
            self.run_fold(train, val, test, seed=seed + i)
            for i, (train, val, test) in enumerate(splits)
        ]
        return ExperimentResult.from_runs(
            self.framework, self.model_name, self.dataset.name, runs,
            epoch_times=[r.mean_epoch_time for r in runs],
        )

    # ------------------------------------------------------------------
    def measure_epoch(
        self, n_epochs: int = 2, seed: int = 0, train_fraction: float = 0.8
    ) -> RunResult:
        """Timing-only runs over the dataset's training split.

        Used by the Fig. 1/2/4/5 benches, which need per-phase time, memory
        and utilisation rather than converged accuracy.
        """
        n = len(self.dataset)
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        n_train = max(int(n * train_fraction), 1)
        train_idx = order[:n_train]
        rest = order[n_train:]
        half = max(len(rest) // 2, 1)
        test_idx = rest[half:] if len(rest) > half else rest[:half]
        return self._train(train_idx, rest[:half], test_idx, seed, n_epochs)
