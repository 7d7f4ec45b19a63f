"""Record the pinned training-parity fixture (``train_parity.json``).

Every trainer, the DataParallel baseline and one fault-tolerant run are
driven on small fixed cells and the ``float.hex()`` of their simulated
timings and losses written out.  ``tests/train/test_train_parity.py``
asserts exact equality against the committed file, so a refactor of
``repro.train`` that moves a clock charge, an RNG draw or a phase
boundary fails tier-1 instead of drifting a ``BENCH_*.json`` baseline.

Re-record only at a commit whose numbers are the intended reference::

    PYTHONPATH=src python tests/fixtures/record_train_parity.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import Callable, Dict

import numpy as np

from repro.datasets import cora, enzymes, load_dataset
from repro.device import Device
from repro.dist import BatchConfig
from repro.faults import FaultPlan
from repro.scale import make_scale_dataset
from repro.train import (
    DDPTrainer,
    GraphClassificationTrainer,
    NodeClassificationTrainer,
    RunResult,
    SampledNodeTrainer,
    multi_gpu_epoch_time,
)

FIXTURE = Path(__file__).with_name("train_parity.json")
PACKS = ("pygx", "dglx")
GRAPH_SPLIT = (np.arange(32), np.arange(32, 40), np.arange(40, 48))


def _summary(result: RunResult) -> Dict:
    return {
        "train_loss": float(result.epochs[-1].train_loss).hex(),
        "total_time": float(result.total_time).hex(),
        "peak_memory": int(result.peak_memory),
        "phase_times": [
            {name: float(value).hex() for name, value in sorted(e.phase_times.items())}
            for e in result.epochs
        ],
    }


def _graph(framework: str, **kwargs) -> Dict:
    trainer = GraphClassificationTrainer(
        framework, "gcn", enzymes(seed=0, num_graphs=48), batch_size=16,
        max_epochs=2, device=Device(), **kwargs,
    )
    return _summary(trainer.run_fold(*GRAPH_SPLIT, seed=0))


def _node(framework: str) -> Dict:
    trainer = NodeClassificationTrainer(
        framework, "gcn", cora(seed=0), max_epochs=2, device=Device()
    )
    return _summary(trainer.run(seed=0))


def _sampled(framework: str) -> Dict:
    dataset = make_scale_dataset(
        1200, avg_degree=6.0, n_classes=4, n_features=16, seed=0, self_loops=True
    )
    trainer = SampledNodeTrainer(
        framework, "gcn", dataset, fanouts=(5, 5), batch_size=32,
        max_epochs=2, max_batches=2, device=Device(),
    )
    return _summary(trainer.run(seed=0))


def _ddp(framework: str, replicas: int, **kwargs) -> Dict:
    trainer = DDPTrainer(
        framework, "gcn", enzymes(seed=0, num_graphs=48),
        BatchConfig(4, grad_accumulation=2, replicas=replicas),
        max_epochs=2, device=Device(), **kwargs,
    )
    return _summary(trainer.run_fold(*GRAPH_SPLIT, seed=0))


def _multi_gpu(framework: str, n_gpus: int) -> str:
    seconds = multi_gpu_epoch_time(
        framework, "gcn", load_dataset("mnist", num_graphs=96),
        batch_size=32, n_gpus=n_gpus, device=Device(), max_batches=2,
    )
    return float(seconds).hex()


def _fault_tolerant() -> Dict:
    trainer = GraphClassificationTrainer(
        "pygx", "gcn", enzymes(seed=0, num_graphs=60), batch_size=16,
        max_epochs=4, device=Device(),
    )
    order = np.random.default_rng(0).permutation(60)
    with tempfile.TemporaryDirectory() as tmp:
        run = trainer.run_fold_fault_tolerant(
            order[:40], order[40:50], order[50:], seed=0,
            fault_plan=FaultPlan(seed=2, oom_rate=0.001, kernel_fault_rate=0.001),
            state_path=Path(tmp) / "state.npz",
        )
    return {"restarts": run.restarts, **_summary(run.result)}


def cells() -> Dict[str, Callable[[], object]]:
    """Cell name -> thunk producing its recorded value."""
    out: Dict[str, Callable[[], object]] = {}
    for pack in PACKS:
        out[f"graph/{pack}/eager"] = lambda p=pack: _graph(p)
        out[f"graph/{pack}/compiled+prefetch"] = lambda p=pack: _graph(
            p, compile=True, prefetch=True
        )
        out[f"node/{pack}"] = lambda p=pack: _node(p)
        out[f"sampled/{pack}"] = lambda p=pack: _sampled(p)
        for n_gpus in (1, 4):
            out[f"multi_gpu/{pack}/{n_gpus}"] = lambda p=pack, n=n_gpus: _multi_gpu(p, n)
        for replicas in (1, 2):
            out[f"ddp/{pack}/replicas={replicas}"] = lambda p=pack, r=replicas: _ddp(p, r)
        out[f"ddp/{pack}/replicas=2/compiled+prefetch"] = lambda p=pack: _ddp(
            p, 2, compile=True, prefetch=True
        )
    out["fault_tolerant/pygx"] = _fault_tolerant
    return out


if __name__ == "__main__":
    recorded = {name: thunk() for name, thunk in cells().items()}
    FIXTURE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} cells to {FIXTURE}")
