"""Cell functions of the ablation / extension experiments.

Each isolates one mechanism behind an observation of the paper (the loader
gap, the edge-feature path, launch overhead, ...) and returns JSON-able
cells.  Only :mod:`repro.bench.experiments` imports this module: the
records there hold the protocols, the renderings and the claims.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.bench.overlap import project_overlap
from repro.bench.runner import breakdown_row
from repro.datasets import load_dataset
from repro.device import Device, RTX_2080TI, use_device
from repro.models import graph_config
from repro.nn import cross_entropy
from repro.optim import Adam
from repro.packs import get_pack
from repro.tensor import CSRGraph, Tensor, gspmm, index_rows, scatter_sum
from repro.train import GraphClassificationTrainer
from repro.train.loop import train_step


def batching_cells(frameworks: Sequence[str], batch_sizes: Sequence[int],
                   num_graphs: int) -> List[Dict]:
    """Loader only (no model, no training): simulated seconds to collate
    every ENZYMES graph once, PyG-style vectorised vs DGL-style per-type."""
    graphs = load_dataset("enzymes", num_graphs=num_graphs).graphs
    cells = []
    for framework in frameworks:
        for batch_size in batch_sizes:
            device = Device()
            with use_device(device):
                for _ in get_pack(framework).graph_loader(graphs, batch_size):
                    pass
            cells.append({"framework": framework, "batch_size": batch_size,
                          "seconds": device.clock.elapsed})
    return cells


def _step_cost(kind: str, model: str, dataset) -> Dict:
    """Simulated time and peak memory of one training step on the whole of
    ``dataset`` as a single batch; ``kind`` is a framework pack or ``dense``."""
    config = graph_config(model, in_dim=dataset.num_features, n_classes=dataset.num_classes)
    device = Device()
    with use_device(device):
        rng = np.random.default_rng(0)
        if kind == "dense":
            from repro.densex import DenseGCNNet, dense_batch

            net = DenseGCNNet(config, rng)
            inputs = dense_batch(dataset.graphs)
            labels = inputs.y
        else:
            pack = get_pack(kind)
            net = pack.build_model(config, rng)
            inputs, labels = pack.collate(dataset.graphs)
        step = train_step(net, Adam(net.parameters(), lr=config.lr), device.clock, cross_entropy)
        device.memory.reset_peak()
        start = device.clock.snapshot()
        step(inputs, labels)
        return {"step_time": start.delta(device.clock).elapsed,
                "peak_memory": device.memory.peak}


def dense_baseline_cells(kinds: Sequence[str], batch_sizes: Sequence[int]) -> List[Dict]:
    """The same GCN step on one DD batch: dense block-diagonal adjacency
    (``repro.densex``) vs PyG-style scatter vs DGL-style GSpMM."""
    return [{"kind": kind, "batch_size": batch,
             **_step_cost(kind, "gcn", load_dataset("dd", num_graphs=batch))}
            for kind in kinds for batch in batch_sizes]


def edgefeat_cells(frameworks: Sequence[str], batch_sizes: Sequence[int]) -> List[Dict]:
    """One GatedGCN step with (dglx) and without (pygx) the explicit
    edge-feature state, on one ENZYMES batch."""
    return [{"framework": framework, "batch_size": batch,
             **_step_cost(framework, "gatedgcn", load_dataset("enzymes", num_graphs=batch))}
            for batch in batch_sizes for framework in frameworks]


def gpu_speed_cells(num_graphs: Mapping[str, int], speeds: Sequence[float],
                    batch_size: int, epochs: int) -> List[Dict]:
    """GCN/PyG epoch time on cards ``speed`` times the 2080 Ti's FLOPs and
    bandwidth (host costs fixed), per dataset of ``num_graphs`` (name -> cap)."""
    cells = []
    for name, cap in num_graphs.items():
        dataset = load_dataset(name, num_graphs=cap)
        for speed in speeds:
            spec = dataclasses.replace(
                RTX_2080TI,
                peak_flops=RTX_2080TI.peak_flops * speed,
                mem_bandwidth=RTX_2080TI.mem_bandwidth * speed,
            )
            trainer = GraphClassificationTrainer(
                "pygx", "gcn", dataset, batch_size=batch_size, device=Device(spec))
            cells.append({"dataset": name, "speed": speed,
                          "epoch_time": trainer.measure_epoch(n_epochs=epochs).mean_epoch_time})
    return cells


def heterograph_cells(type_counts: Sequence[int], num_graphs: int,
                      batch_size: int) -> List[Dict]:
    """Collating the same ENZYMES graphs recast as k-relation heterographs."""
    from repro.dglx.hetero_multitype import as_k_type_graph, batch_hetero

    graphs = load_dataset("enzymes", num_graphs=num_graphs).graphs
    cells = []
    for k in type_counts:
        rng = np.random.default_rng(0)
        device = Device()
        with use_device(device):
            hetero = [as_k_type_graph(g.edge_index, g.x, k, rng) for g in graphs]
            device.clock.reset()
            for start in range(0, len(hetero), batch_size):
                batch_hetero(hetero[start : start + batch_size])
        cells.append({"edge_types": k, "seconds": device.clock.elapsed})
    return cells


def launch_overhead_cells(overheads_us: Sequence[float], batch_sizes: Sequence[int],
                          num_graphs: int, epochs: int) -> List[Dict]:
    """ENZYMES GCN/PyG forward+backward time per epoch with the kernel-launch
    overhead swept."""
    dataset = load_dataset("enzymes", num_graphs=num_graphs)
    cells = []
    for overhead in overheads_us:
        spec = dataclasses.replace(RTX_2080TI, launch_overhead=overhead * 1e-6)
        for batch_size in batch_sizes:
            trainer = GraphClassificationTrainer(
                "pygx", "gcn", dataset, batch_size=batch_size, device=Device(spec))
            row = breakdown_row(trainer.measure_epoch(n_epochs=epochs))
            cells.append({"launch_overhead_us": overhead, "batch_size": batch_size,
                          "fwd_bwd": row["forward"] + row["backward"]})
    return cells


def spmm_fusion_cells(widths: Sequence[int], num_graphs: int) -> List[Dict]:
    """Sum aggregation over one ENZYMES batch, fused GSpMM vs gather+scatter:
    launches, kernel time, elapsed time, and how far the two results differ."""
    batch, _ = get_pack("pygx").collate(load_dataset("enzymes", num_graphs=num_graphs).graphs)
    (src, dst), num_nodes = batch.edge_index, batch.num_nodes

    def aggregate(kind: str, x: np.ndarray):
        device = Device()
        with use_device(device):
            feats = Tensor(x)
            if kind == "fused":
                csr = CSRGraph.from_edge_index(src, dst, num_nodes, num_nodes)
            device.reset()  # the CSR build is set-up, not aggregation
            device.profiler.enabled = True
            if kind == "fused":
                out = gspmm(csr, feats)
            else:
                out = scatter_sum(index_rows(feats, src), dst, num_nodes)
            return out.data, {"launches": len(device.profiler.records),
                              "kernel_time": device.profiler.total_time(),
                              "elapsed": device.clock.elapsed}

    cells = []
    for width in widths:
        x = np.random.default_rng(0).normal(size=(num_nodes, width)).astype(np.float32)
        (fused, fused_cost), (unfused, unfused_cost) = aggregate("fused", x), aggregate("unfused", x)
        diff = float(np.abs(fused - unfused).max())
        cells += [{"kind": kind, "width": width, **cost, "max_abs_diff": diff}
                  for kind, cost in (("fused", fused_cost), ("unfused", unfused_cost))]
    return cells


def _epochs_with_loader(cached: bool, dataset, batch_size: int, epochs: int):
    """Per-epoch times and utilisation of GCN/PyG training through the
    standard or the collate-once loader."""
    from repro.pygx import DataLoader, build_model
    from repro.pygx.cached_loader import CachedDataLoader

    config = graph_config("gcn", in_dim=dataset.num_features, n_classes=dataset.num_classes)
    device = Device()
    with use_device(device):
        rng = np.random.default_rng(0)
        net = build_model(config, rng)
        step = train_step(net, Adam(net.parameters(), lr=config.lr), device.clock, cross_entropy)
        if cached:
            loader = CachedDataLoader(dataset.graphs, batch_size=batch_size, rng=rng)
        else:
            loader = DataLoader(dataset.graphs, batch_size=batch_size, shuffle=False, rng=rng)
        clock = device.clock
        times = []
        for _ in range(epochs):
            before = clock.snapshot()
            for batch in loader:
                step(batch, batch.y)
            times.append(before.delta(clock).elapsed)
        return times, clock.utilization()


def batching_optimization_cells(num_graphs: int, batch_size: int, epochs: int) -> List[Dict]:
    """GCN on ENZYMES three ways: standard loader, batch-caching loader
    (steady state = after the cache-filling first epoch) and the pipelined
    loader's projection (``first_epoch_time`` = the serial epoch projected from)."""
    dataset = load_dataset("enzymes", num_graphs=num_graphs)
    cells = []
    for strategy, cached in (("standard", False), ("cached", True)):
        times, utilization = _epochs_with_loader(cached, dataset, batch_size, epochs)
        steady = times[1:] if cached else times
        cells.append({"strategy": strategy, "epoch_time": float(np.mean(steady)),
                      "first_epoch_time": times[0], "gpu_utilization": utilization})
    trainer = GraphClassificationTrainer("pygx", "gcn", dataset, batch_size=batch_size)
    overlap = project_overlap(trainer.measure_epoch(n_epochs=1))
    cells.append({"strategy": "pipelined", "epoch_time": overlap.overlapped_epoch,
                  "first_epoch_time": overlap.serial_epoch, "gpu_utilization": None})
    return cells
