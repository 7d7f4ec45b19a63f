"""The one epoch loop every training protocol runs through.

The paper's comparison is like-for-like only if every (framework, task)
pair is set up and timed the same way.  :func:`run_epochs` fixes the
order of RNG draws (model init, then whatever the protocol builds), the
clock snapshots around training and validation and the per-epoch record;
:func:`train_step` fixes the forward / backward / update phase brackets.
A trainer describes only what differs — a :class:`Protocol` of plain
callables — and which of the paper's two end-of-epoch policies applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro.device import Device, SimClock, use_device
from repro.models import ModelConfig
from repro.nn import Module
from repro.optim import Adam
from repro.packs import Pack
from repro.train.checkpoint import RunState
from repro.train.results import EpochRecord, RunResult


def train_step(
    model: Module,
    optimizer,
    clock: SimClock,
    loss_fn: Callable,
    compile: bool = False,
    update: bool = True,
) -> Callable:
    """The phase-bracketed step ``step(inputs, *targets) -> loss``.

    ``loss_fn(model(inputs), *targets)`` runs under the ``forward`` phase,
    ``zero_grad`` + ``backward`` under ``backward`` and the optimizer
    under ``update``, so every protocol decomposes like Figs. 1-2.
    ``compile=True`` captures and replays the whole step through
    :class:`~repro.compile.CompiledStep`.  Gradient accumulation builds
    its micro-step with ``update=False`` and passes ``zero_grad=False`` on
    all but a group's first micro-batch; the caller then owns the update.
    """

    def step(inputs, *targets, zero_grad: bool = True):
        with clock.phase("forward"):
            loss = loss_fn(model(inputs), *targets)
        with clock.phase("backward"):
            if zero_grad:
                optimizer.zero_grad()
            loss.backward()
        if update:
            with clock.phase("update"):
                optimizer.step()
        return loss

    if compile:
        from repro.compile import CompiledStep

        return CompiledStep(step)
    return step


@dataclass
class Protocol:
    """What one training protocol supplies to :func:`run_epochs`."""

    #: ``batches(epoch)`` -> the epoch's argument tuples for ``step``.
    batches: Callable[[int], Iterable[Tuple]]
    #: ``step(*args)`` -> the step's loss, as anything with ``.item()``.
    step: Callable
    #: ``evaluate(epoch) -> (val_loss, val_acc)``, timed as eval time.
    evaluate: Callable[[int], Tuple[float, float]]
    #: ``test(epoch)`` -> test accuracy.
    test: Callable[[int], float]
    #: The end-of-epoch policy.  Given (Table V): ``stop(val_loss)`` closes
    #: every epoch, training ends once it returns True and ``test`` runs
    #: once, on the final parameters.  Omitted (Table IV): every epoch
    #: runs and ``test`` runs at each new best validation accuracy.
    stop: Optional[Callable[[float], bool]] = None
    #: Continue a checkpointed run after its last completed epoch.
    resume: Optional[RunState] = None
    #: ``checkpoint(epoch, records, stopped)``, called as each epoch closes.
    checkpoint: Optional[Callable[[int, List[EpochRecord], bool], None]] = None


def run_epochs(
    device: Device,
    pack: Pack,
    config: ModelConfig,
    seed: int,
    max_epochs: int,
    protocol: Callable[[Module, Adam, np.random.Generator], Protocol],
) -> RunResult:
    """One seeded training run of ``pack``'s ``config`` model on ``device``.

    Builds the model and its Adam optimizer from ``default_rng(seed)``,
    then hands both and the generator to ``protocol`` to build loaders and
    callables, so model init always draws first.  Timing and peak memory
    start after that set-up.
    """
    with use_device(device):
        rng = np.random.default_rng(seed)
        model = pack.build_model(config, rng)
        optimizer = Adam(model.parameters(), lr=config.lr)
        p = protocol(model, optimizer, rng)
        clock = device.clock
        device.memory.reset_peak()

        done = p.resume or RunState(epoch=-1)
        records, epoch, stopped = list(done.records), done.epoch, done.stopped
        best_val, test_acc = -1.0, 0.0
        start = clock.snapshot()
        # A restored ``stopped`` means the stopping rule already fired;
        # go straight to the test evaluation.
        for epoch in range(epoch + 1, epoch + 1 if stopped else max_epochs):
            model.train()
            before = clock.snapshot()
            losses = []
            for args in p.batches(epoch):
                loss = p.step(*args)
                losses.append(loss.item())
            train_delta = before.delta(clock)

            before_eval = clock.snapshot()
            val_loss, val_acc = p.evaluate(epoch)
            eval_delta = before_eval.delta(clock)
            records.append(
                EpochRecord(
                    epoch=epoch,
                    train_time=train_delta.elapsed,
                    eval_time=eval_delta.elapsed,
                    phase_times=train_delta.phase_elapsed,
                    train_loss=float(np.mean(losses)) if losses else 0.0,
                    val_loss=val_loss,
                    val_acc=val_acc,
                )
            )
            if p.stop is not None:
                stopped = p.stop(val_loss)
            elif val_acc > best_val:
                best_val, test_acc = val_acc, p.test(epoch)
            if p.checkpoint is not None:
                p.checkpoint(epoch, records, stopped)
            if stopped:
                break
        if p.stop is not None:
            test_acc = p.test(epoch)
        return RunResult(
            test_acc=test_acc,
            epochs=records,
            peak_memory=device.memory.peak,
            gpu_utilization=clock.utilization(),
            total_time=start.delta(clock).elapsed,
        )
