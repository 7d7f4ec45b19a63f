"""Million-node scale benches: sampled training under a memory cap and
sampled-vs-full accuracy parity.

Three cell kinds back the ``scale`` record of :mod:`repro.bench.experiments`:

* :func:`scale_parity_cell` — smoke-scale accuracy protocol.  A full-batch
  baseline (:class:`~repro.train.NodeClassificationTrainer` over the
  materialised COO graph) against fanout-sampled training
  (:class:`~repro.train.SampledNodeTrainer` with ``full_graph_norm``),
  evaluated through :func:`~repro.scale.partitioned_inference` so the
  whole sampled-training/partitioned-serving path is what parity gates.
* :func:`scale_training_cell` — sampled mini-batch training of a
  million-node graph on a device capped *below* the full-graph memory
  floor, with ``prefetch`` + ``compile`` on.  Running at all is the
  point: full-graph training provably cannot fit
  (:func:`~repro.scale.full_graph_training_memory_floor`), sampled
  training fits with two orders of magnitude to spare.
* :func:`scale_partitioned_cell` — full-graph inference over the same
  capped device via degree-balanced partitions and halo exchange, one
  part resident at a time.

Everything is a deterministic function of the seeds: the simulated clock
and memory pool make the timing/peak metrics reproducible across hosts,
so ``tools/check_bench_regression.py`` can gate them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Sequence

from repro.device import Device, use_device
from repro.device.gpu import RTX_2080TI
from repro.packs import FRAMEWORKS
from repro.scale import (
    ScaleNodeDataset,
    degree_balanced_partition,
    full_graph_training_memory_floor,
    make_scale_dataset,
    partitioned_inference,
)
from repro.train import NodeClassificationTrainer, SampledNodeTrainer

SCALE_FRAMEWORKS = FRAMEWORKS
SCALE_MODELS = ("gcn", "sage")

#: Simulated device capacity for the million-node cells: 2 GB sits below
#: the ~2.4 GB full-graph training floor of the narrowest model (SAGE) on
#: the 1M-node graph, so full-graph training provably cannot fit while
#: sampled training and partitioned inference must prove they do.
MEMORY_CAP_BYTES = 2_000_000_000


def capped_device(memory_bytes: int = MEMORY_CAP_BYTES) -> Device:
    """An RTX 2080 Ti whose memory pool is capped at ``memory_bytes``.

    Allocations beyond the cap raise
    :class:`~repro.device.OutOfMemoryError`, so a run completing on this
    device is a proof of fit, not a bookkeeping claim.
    """
    spec = replace(
        RTX_2080TI,
        name=f"{RTX_2080TI.name} (capped {memory_bytes / 1e9:.1f}GB)",
        memory_bytes=memory_bytes,
    )
    return Device(spec)


def smoke_scale_dataset(n_nodes: int = 10_000, seed: int = 0) -> ScaleNodeDataset:
    """The parity-protocol graph: homophilous enough for GCN to learn.

    High ``a`` R-MAT mass (0.75 on the diagonal quadrant), 4 classes,
    strong feature signal and self loops; the 20% test split keeps the
    parity gap's sampling noise well under the 2% tolerance.
    """
    return make_scale_dataset(
        n_nodes,
        avg_degree=8.0,
        n_classes=4,
        n_features=32,
        seed=seed,
        feature_signal=3.0,
        test_fraction=0.2,
        rmat_abc=(0.75, 0.10, 0.10),
        self_loops=True,
    )


def million_scale_dataset(n_nodes: int = 1_000_000, seed: int = 0) -> ScaleNodeDataset:
    """The capped-memory protocol graph: 1M nodes, ~17M symmetrised edges.

    Split fractions are scaled down (2%/0.5%/0.5%) so sampled epochs and
    eval passes stay minutes-scale while still covering tens of thousands
    of seed nodes.
    """
    return make_scale_dataset(
        n_nodes,
        avg_degree=8.0,
        n_classes=8,
        n_features=32,
        seed=seed,
        train_fraction=0.02,
        val_fraction=0.005,
        test_fraction=0.005,
        self_loops=True,
    )


def _partitioned_test_accuracy(
    framework: str,
    model,
    dataset: ScaleNodeDataset,
    k: int,
    device: Device,
) -> float:
    """Test accuracy of ``model`` via per-partition halo-exchange inference."""
    with use_device(device):
        partition = degree_balanced_partition(dataset.graph, k)
        logits = partitioned_inference(framework, model, dataset.graph, partition)
    pred = logits[dataset.test_idx].argmax(axis=1)
    return float((pred == dataset.graph.y[dataset.test_idx]).mean())


# ----------------------------------------------------------------------
# Smoke-scale parity: sampled training must match the full-batch baseline
# ----------------------------------------------------------------------
def scale_parity_cell(
    framework: str,
    model: str,
    dataset: ScaleNodeDataset,
    seed: int = 0,
    fanouts: Sequence[int] = (32, 32),
    batch_size: int = 512,
    sampled_epochs: int = 50,
    full_epochs: int = 100,
    parts: int = 4,
    tolerance: float = 0.02,
) -> Dict:
    """Sampled-vs-full accuracy parity for one (framework, model) pair.

    The sampled side trains with ``full_graph_norm`` (the Horvitz-Thompson
    degree debiasing that makes sampled aggregation an unbiased estimate
    of the full-graph layer) and is *evaluated through partitioned
    inference* — the deployment path — so the gated gap covers training
    estimator bias and the halo-exchange execution at once.
    """
    full = NodeClassificationTrainer(
        framework, model, dataset.to_node_dataset(), max_epochs=full_epochs
    )
    full_result = full.run(seed)

    trainer = SampledNodeTrainer(
        framework,
        model,
        dataset,
        fanouts=fanouts,
        batch_size=batch_size,
        max_epochs=sampled_epochs,
        ensure_self_loops=True,
        full_graph_norm=True,
    )
    sampled_result = trainer.run(seed)
    part_acc = _partitioned_test_accuracy(
        framework, trainer.final_model, dataset, parts, trainer.device
    )
    gap = abs(full_result.test_acc - part_acc)
    return {
        "framework": framework,
        "model": model,
        "n_nodes": dataset.graph.num_nodes,
        "n_edges": dataset.graph.num_edges,
        "full_acc": float(full_result.test_acc),
        "sampled_acc": float(sampled_result.test_acc),
        "partitioned_acc": part_acc,
        "gap": float(gap),
        "tolerance": tolerance,
        "within_tolerance": bool(gap <= tolerance),
        "full_peak_mb": full_result.peak_memory / 1e6,
        "sampled_peak_mb": sampled_result.peak_memory / 1e6,
    }


# ----------------------------------------------------------------------
# Million-node sampled training under the memory cap
# ----------------------------------------------------------------------
def scale_training_cell(
    framework: str,
    model: str,
    dataset: ScaleNodeDataset,
    seed: int = 0,
    fanouts: Sequence[int] = (10, 10),
    batch_size: int = 1024,
    max_epochs: int = 2,
    max_batches: int = 20,
    memory_bytes: int = MEMORY_CAP_BYTES,
) -> Dict:
    """Sampled training of one pair on the capped device.

    ``prefetch`` and ``compile`` are on — the cell exercises the full
    execution stack (sampling -> pipelined collation -> captured replay).
    ``under_cap`` is trivially honest: the capped pool would have raised
    :class:`~repro.device.OutOfMemoryError` otherwise.
    """
    trainer = SampledNodeTrainer(
        framework,
        model,
        dataset,
        fanouts=fanouts,
        batch_size=batch_size,
        max_epochs=max_epochs,
        max_batches=max_batches,
        device=capped_device(memory_bytes),
        compile=True,
        prefetch=True,
        ensure_self_loops=True,
        full_graph_norm=True,
    )
    result = trainer.run(seed)
    train_time = sum(r.train_time for r in result.epochs)
    sampling = sum(r.phase_times.get("sampling", 0.0) for r in result.epochs)
    floor = full_graph_training_memory_floor(
        dataset.graph.num_nodes, dataset.graph.num_edges, trainer.config
    )
    stats = trainer.compiled_step.stats
    return {
        "framework": framework,
        "model": model,
        "n_nodes": dataset.graph.num_nodes,
        "n_edges": dataset.graph.num_edges,
        "batches_per_epoch": max_batches,
        "epoch_time": train_time / max_epochs,
        "epochs_per_sec": max_epochs / train_time,
        "sampling_fraction": sampling / train_time,
        "peak_memory": int(result.peak_memory),
        "memory_cap": int(memory_bytes),
        "under_cap": bool(result.peak_memory <= memory_bytes),
        "full_graph_floor": int(floor),
        "full_graph_exceeds_cap": bool(floor > memory_bytes),
        "captures": stats.captures,
        "replays": stats.replays,
        "final_train_loss": float(result.epochs[-1].train_loss),
        "val_acc": float(result.epochs[-1].val_acc),
    }


# ----------------------------------------------------------------------
# Million-node partitioned full-graph inference under the memory cap
# ----------------------------------------------------------------------
def scale_partitioned_cell(
    framework: str,
    model: str,
    dataset: ScaleNodeDataset,
    seed: int = 0,
    k: int = 32,
    memory_bytes: int = MEMORY_CAP_BYTES,
    fanouts: Sequence[int] = (10, 10),
    batch_size: int = 1024,
    train_epochs: int = 1,
    train_batches: int = 10,
) -> Dict:
    """Full-graph inference via ``k`` halo-exchange partitions.

    A short sampled-training run produces the weights; the inference pass
    then touches every node of the graph on the capped device — only one
    part's working set is resident at a time, which is the entire reason
    the cap is survivable.
    """
    trainer = SampledNodeTrainer(
        framework,
        model,
        dataset,
        fanouts=fanouts,
        batch_size=batch_size,
        max_epochs=train_epochs,
        max_batches=train_batches,
        device=capped_device(memory_bytes),
        ensure_self_loops=True,
        full_graph_norm=True,
    )
    trainer.run(seed)

    device = capped_device(memory_bytes)
    device.memory.reset_peak()
    before = device.clock.snapshot()
    partition = degree_balanced_partition(dataset.graph, k)
    with use_device(device):
        logits = partitioned_inference(
            framework, trainer.final_model, dataset.graph, partition
        )
    elapsed = before.delta(device.clock).elapsed
    pred = logits[dataset.test_idx].argmax(axis=1)
    acc = float((pred == dataset.graph.y[dataset.test_idx]).mean())
    stats = partition.stats()
    return {
        "framework": framework,
        "model": model,
        "k": k,
        "n_nodes": dataset.graph.num_nodes,
        "n_edges": dataset.graph.num_edges,
        "inference_time": float(elapsed),
        "test_acc": acc,
        "peak_memory": int(device.memory.peak),
        "memory_cap": int(memory_bytes),
        "under_cap": bool(device.memory.peak <= memory_bytes),
        "edge_balance": float(stats.edge_balance),
        "replication_factor": float(stats.replication_factor),
        "cut_edges": int(stats.cut_edges),
    }


# ----------------------------------------------------------------------
# Table renderers
# ----------------------------------------------------------------------
SCALE_TRAIN_TABLE = [
    ("model", lambda c: c["model"]),
    ("fw", lambda c: c["framework"]),
    ("epoch(s)", lambda c: f"{c['epoch_time']:.3f}"),
    ("ep/s", lambda c: f"{c['epochs_per_sec']:.2f}"),
    ("sampling", lambda c: f"{c['sampling_fraction'] * 100:.0f}%"),
    ("peak(MB)", lambda c: f"{c['peak_memory'] / 1e6:.0f}"),
    ("cap(MB)", lambda c: f"{c['memory_cap'] / 1e6:.0f}"),
    ("fits", lambda c: "yes" if c["under_cap"] else "OOM"),
    ("full floor(GB)", lambda c: f"{c['full_graph_floor'] / 1e9:.2f}"),
    ("full fits", lambda c: "no" if c["full_graph_exceeds_cap"] else "yes"),
]

SCALE_PART_TABLE = [
    ("model", lambda c: c["model"]),
    ("fw", lambda c: c["framework"]),
    ("k", lambda c: c["k"]),
    ("time(s)", lambda c: f"{c['inference_time']:.2f}"),
    ("peak(MB)", lambda c: f"{c['peak_memory'] / 1e6:.0f}"),
    ("cap(MB)", lambda c: f"{c['memory_cap'] / 1e6:.0f}"),
    ("fits", lambda c: "yes" if c["under_cap"] else "OOM"),
    ("test acc", lambda c: f"{c['test_acc']:.3f}"),
]

SCALE_PARITY_TABLE = [
    ("model", lambda c: c["model"]),
    ("fw", lambda c: c["framework"]),
    ("full acc", lambda c: f"{c['full_acc']:.3f}"),
    ("sampled acc", lambda c: f"{c['sampled_acc']:.3f}"),
    ("part acc", lambda c: f"{c['partitioned_acc']:.3f}"),
    ("gap", lambda c: f"{c['gap']:.3f}"),
    ("parity", lambda c: "ok" if c["within_tolerance"] else "DIVERGED"),
]
