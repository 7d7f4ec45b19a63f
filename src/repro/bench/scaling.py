"""repro.dist scaling bench: DDP vs DataParallel epoch time on MNIST.

Two cell kinds back the ``scaling`` record of :mod:`repro.bench.experiments`:

* :func:`scaling_cell` — one (framework, model, replicas) point of the
  Fig. 6 reproduce-and-extend curve.  The baseline is the paper-faithful
  single-process DataParallel estimate
  (:func:`~repro.train.multi_gpu_epoch_time`: serial scatter over PCIe,
  per-replica compute, serial gradient gather); the contender is real
  :class:`~repro.train.DDPTrainer` training with per-replica loader
  shards, bucketed ring/tree all-reduce over the modelled NVLink fabric,
  and comm overlapped with backward.  Both see the same global batch, so
  their per-epoch step counts match and the times compare directly.
* :func:`scaling_parity_cell` — the correctness gate.  A
  ``world_size=1`` :class:`~repro.train.DDPTrainer` must reproduce the
  single-device :class:`~repro.train.GraphClassificationTrainer` loss
  trajectory **bitwise** (no hooks, no comm streams, no fabric at
  world size 1), and multi-replica training must keep collectives
  bitwise-deterministic (fixed-order reduction regardless of ring/tree
  schedule).

Everything is a deterministic function of the seeds — simulated clock,
roofline kernels, modelled fabric — so the JSON this feeds
(``BENCH_scaling.json``) is reproducible across hosts under
:data:`repro.bench.spec.NUMERIC_ENV`, and CI diffs it byte for byte.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.datasets import GraphClassificationDataset
from repro.device import Device
from repro.device.fabric import LinkSpec, NVLINK
from repro.dist import BatchConfig, COMM_PHASE
from repro.packs import FRAMEWORKS
from repro.train import (
    DDPTrainer,
    GraphClassificationTrainer,
    multi_gpu_epoch_time,
)

SCALING_FRAMEWORKS = FRAMEWORKS
SCALING_MODELS = ("gcn", "gat")
SCALING_REPLICAS = (1, 2, 4, 8)

def scaling_cell(
    framework: str,
    model: str,
    dataset: GraphClassificationDataset,
    replicas: int,
    global_batch: int = 256,
    link: LinkSpec = NVLINK,
    max_batches: int = 2,
    seed: int = 0,
) -> Dict:
    """One point of the epoch-time-vs-replicas curve.

    ``max_batches`` bounds only the DataParallel baseline's measured
    batches (scaled back to a full epoch, as in Fig. 6); the DDP side
    always trains the full epoch for real.
    """
    dp_time = multi_gpu_epoch_time(
        framework,
        model,
        dataset,
        batch_size=global_batch,
        n_gpus=replicas,
        device=Device(),
        max_batches=max_batches,
        seed=seed,
    )
    trainer = DDPTrainer(
        framework,
        model,
        dataset,
        BatchConfig.for_global_batch(global_batch, replicas=replicas),
        device=Device(),
        compile=True,
        prefetch=True,
        link=link,
    )
    result = trainer.measure_epoch(n_epochs=1, seed=seed, train_fraction=1.0)
    ddp_time = result.mean_epoch_time
    comm_time = result.mean_phase_times().get(COMM_PHASE, 0.0)
    stats = trainer.communicator.stats
    fabric = trainer.communicator.fabric
    return {
        "framework": framework,
        "model": model,
        "replicas": replicas,
        "global_batch": global_batch,
        "link": link.name,
        "dp_epoch_time": dp_time,
        "ddp_epoch_time": ddp_time,
        "speedup_vs_dp": dp_time / ddp_time,
        "beats_dataparallel": bool(ddp_time < dp_time),
        "comm_time": comm_time,
        "comm_fraction": comm_time / ddp_time if ddp_time else 0.0,
        "collectives": stats.collectives,
        "comm_bytes": stats.bytes_moved,
        "fabric_bytes": fabric.stats().bytes_moved if fabric else 0,
        "fabric_contention": fabric.contention_seconds if fabric else 0.0,
    }


def scaling_series(
    dataset: GraphClassificationDataset,
    frameworks: Sequence[str] = SCALING_FRAMEWORKS,
    models: Sequence[str] = SCALING_MODELS,
    replica_counts: Sequence[int] = SCALING_REPLICAS,
    global_batch: int = 256,
) -> List[Dict]:
    """The full (model, framework, replicas) grid, DP and DDP."""
    return [
        scaling_cell(framework, model, dataset, replicas,
                     global_batch=global_batch)
        for model in models
        for framework in frameworks
        for replicas in replica_counts
    ]


def scaling_parity_cell(
    framework: str,
    model: str,
    dataset: GraphClassificationDataset,
    compile: bool = False,
    batch_size: int = 16,
    max_epochs: int = 2,
    seed: int = 0,
) -> Dict:
    """``world_size=1`` DDP vs the single-device trainer, bitwise."""
    n = len(dataset)
    order = np.arange(n)
    cut = max(int(n * 0.7), 1)
    half = cut + max((n - cut) // 2, 1)
    split = (order[:cut], order[cut:half], order[half:] if half < n else order[cut:half])

    baseline = GraphClassificationTrainer(
        framework, model, dataset, batch_size=batch_size,
        max_epochs=max_epochs, device=Device(), compile=compile,
    ).run_fold(*split, seed=seed)
    ddp = DDPTrainer(
        framework, model, dataset, BatchConfig(batch_size),
        max_epochs=max_epochs, device=Device(), compile=compile,
    ).run_fold(*split, seed=seed)

    base_losses = [e.train_loss for e in baseline.epochs]
    ddp_losses = [e.train_loss for e in ddp.epochs]
    return {
        "framework": framework,
        "model": model,
        "mode": "compiled" if compile else "eager",
        "epochs": len(ddp_losses),
        "loss_bitwise_identical": bool(base_losses == ddp_losses),
        "test_acc_equal": bool(baseline.test_acc == ddp.test_acc),
        "baseline_final_loss": base_losses[-1],
        "ddp_final_loss": ddp_losses[-1],
    }


SCALING_TABLE = [
    ("model", lambda c: c["model"]),
    ("fw", lambda c: c["framework"]),
    ("replicas", lambda c: c["replicas"]),
    ("DP (ms)", lambda c: f"{c['dp_epoch_time'] * 1e3:.1f}"),
    ("DDP (ms)", lambda c: f"{c['ddp_epoch_time'] * 1e3:.1f}"),
    ("speedup", lambda c: f"{c['speedup_vs_dp']:.2f}x"),
    ("comm (ms)", lambda c: f"{c['comm_time'] * 1e3:.2f}"),
    ("comm %", lambda c: f"{c['comm_fraction']:.1%}"),
    ("collectives", lambda c: c["collectives"]),
]

SCALING_PARITY_TABLE = [
    ("model", lambda c: c["model"]),
    ("fw", lambda c: c["framework"]),
    ("mode", lambda c: c["mode"]),
    ("losses bitwise", lambda c: "yes" if c["loss_bitwise_identical"] else "NO"),
    ("test acc equal", lambda c: "yes" if c["test_acc_equal"] else "NO"),
]
