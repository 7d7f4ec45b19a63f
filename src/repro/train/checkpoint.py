"""Model checkpointing to ``.npz`` archives.

The graph-classification protocol uses "the model parameters at the end of
training ... for evaluations on test sets" (Section IV-B.2); checkpoints
make that reproducible across processes, and they are what the
DataParallel simulation broadcasts between replicas.

Beyond plain weights, :func:`save_run_state` / :func:`load_run_state`
capture a *whole training run* mid-flight — model, optimizer moments,
LR-schedule state and the exact RNG stream — so a run interrupted by a
fault resumes bitwise-identically to its uninterrupted twin.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.nn import Module
from repro.packs import get_pack
from repro.train.results import EpochRecord

PathLike = Union[str, "os.PathLike[str]"]


def save_checkpoint(model: Module, path: PathLike) -> None:
    """Write the model's parameters and buffers to an ``.npz`` file."""
    state = model.state_dict()
    # np.savez forbids '/' in keys on load via attribute access, but plain
    # dict access works; keep names verbatim for fidelity.
    np.savez(path, **state)


def load_checkpoint(model: Module, path: PathLike) -> None:
    """Load an ``.npz`` checkpoint into ``model`` (strict key match)."""
    with np.load(path) as archive:
        state = {name: archive[name] for name in archive.files}
    model.load_state_dict(state)


def checkpoint_name(framework: str, model_name: str, dataset: str) -> str:
    """Canonical file name for a ``(framework, model, dataset)`` checkpoint."""
    return f"{framework}_{model_name}_{dataset}.npz"


# ----------------------------------------------------------------------
# full run state (fault-tolerant training)
# ----------------------------------------------------------------------
@dataclass
class RunState:
    """Metadata restored alongside the tensors of a run-state checkpoint."""

    #: Index of the last *completed* epoch; ``-1`` = nothing trained yet.
    epoch: int
    #: Whether the stopping rule already fired (LR decayed to ``min_lr``).
    stopped: bool = False
    #: Per-epoch records accumulated up to and including ``epoch``.
    records: List[EpochRecord] = field(default_factory=list)


def _record_to_dict(record: EpochRecord) -> Dict:
    return {
        "epoch": record.epoch,
        "train_time": record.train_time,
        "eval_time": record.eval_time,
        "phase_times": dict(record.phase_times),
        "train_loss": record.train_loss,
        "val_loss": record.val_loss,
        "val_acc": record.val_acc,
    }


def save_run_state(
    path: PathLike,
    model: Module,
    optimizer,
    scheduler,
    rng: np.random.Generator,
    epoch: int,
    records: List[EpochRecord] = (),
    stopped: bool = False,
) -> None:
    """Snapshot a training run after ``epoch`` into one ``.npz`` archive.

    Everything that influences the remaining epochs goes in: model
    parameters and buffers, optimizer state (Adam moments and step count),
    LR-schedule counters, and the *exact* generator state of ``rng`` (the
    stream driving shuffling, dropout and initialisation).  Restoring all
    four makes the continuation bitwise-identical to a run that never
    stopped — ``1e-6``-close is not enough when the stopping rule keys off
    exact loss comparisons.
    """
    arrays: Dict[str, np.ndarray] = {}
    for name, value in model.state_dict().items():
        arrays[f"model/{name}"] = value
    for name, value in optimizer.state_dict().items():
        arrays[f"optim/{name}"] = value
    meta = {
        "epoch": int(epoch),
        "stopped": bool(stopped),
        "scheduler": scheduler.state_dict(),
        # PCG64 state is a nested dict of (arbitrarily large) ints; JSON
        # round-trips it exactly.
        "rng_state": rng.bit_generator.state,
        "records": [_record_to_dict(r) for r in records],
    }
    arrays["__meta__"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


def load_run_state(
    path: PathLike,
    model: Module,
    optimizer,
    scheduler,
    rng: np.random.Generator,
) -> RunState:
    """Restore a :func:`save_run_state` snapshot in place.

    ``model``/``optimizer``/``scheduler``/``rng`` must be freshly built
    with the same configuration that produced the snapshot (strict key
    matching catches drift).  Returns the :class:`RunState` metadata so
    the trainer knows where to pick up.
    """
    with np.load(path) as archive:
        meta = json.loads(str(archive["__meta__"][()]))
        model_state = {}
        optim_state = {}
        for name in archive.files:
            if name.startswith("model/"):
                model_state[name[len("model/"):]] = archive[name]
            elif name.startswith("optim/"):
                optim_state[name[len("optim/"):]] = archive[name]
    model.load_state_dict(model_state)
    optimizer.load_state_dict(optim_state)
    scheduler.load_state_dict(meta["scheduler"])
    rng.bit_generator.state = meta["rng_state"]
    return RunState(
        epoch=int(meta["epoch"]),
        stopped=bool(meta["stopped"]),
        records=[EpochRecord(**r) for r in meta["records"]],
    )


def load_model(
    framework: str,
    config,
    path: PathLike,
    rng: Optional[np.random.Generator] = None,
) -> Module:
    """Build a fresh model for ``framework``/``config`` and load ``path``.

    This is the loading half of the serving story: the registry (and any
    other consumer of trained weights) should not need to know which
    framework pack a checkpoint came from beyond its name.  The returned
    model keeps its default (training) mode; callers that serve it switch
    to ``eval()`` themselves.
    """
    model = get_pack(framework).build_model(config, rng or np.random.default_rng())
    load_checkpoint(model, path)
    return model
