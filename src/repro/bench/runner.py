"""Cell functions shared by the experiment records.

Each function produces one observable of the paper or of an extension; the
records of :mod:`repro.bench.experiments` call these under their documented
(reduced) protocols.  See DESIGN.md section 4 for the experiment index and
section 7 for the scaling knobs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Sequence

import numpy as np

from repro.datasets import load_dataset
from repro.device import Device, use_device
from repro.models import graph_config
from repro.nn import cross_entropy
from repro.optim import Adam
from repro.packs import get_pack
from repro.serve import DynamicBatcher, InferenceModel, ServeSimulator
from repro.serve.metrics import ServingResult
from repro.train import (
    ExperimentResult,
    GraphClassificationTrainer,
    NodeClassificationTrainer,
    RunResult,
)
from repro.train.loop import train_step

PHASE_ORDER = ("data_loading", "forward", "backward", "update", "other")


# ----------------------------------------------------------------------
# Tables IV and V
# ----------------------------------------------------------------------
def table4_cell(
    framework: str,
    model: str,
    dataset_name: str,
    max_epochs: int = 200,
    seeds: Sequence[int] = (0, 1, 2, 3),
) -> ExperimentResult:
    """One (framework, model, dataset) cell of Table IV."""
    dataset = load_dataset(dataset_name)
    trainer = NodeClassificationTrainer(framework, model, dataset, max_epochs=max_epochs)
    return trainer.run_seeds(seeds)


def table5_cell(
    framework: str,
    model: str,
    dataset_name: str,
    num_graphs: int = 0,
    batch_size: int = 128,
    max_epochs: int = 1000,
    n_folds: int = 10,
    max_folds: Optional[int] = None,
) -> ExperimentResult:
    """One (framework, model, dataset) cell of Table V."""
    dataset = load_dataset(dataset_name, num_graphs=num_graphs)
    trainer = GraphClassificationTrainer(
        framework, model, dataset, batch_size=batch_size, max_epochs=max_epochs
    )
    return trainer.cross_validate(n_folds=n_folds, max_folds=max_folds)


# ----------------------------------------------------------------------
# Fig. 1 / 2 (breakdown), Fig. 4 (memory), Fig. 5 (utilisation)
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def epoch_profile(
    framework: str,
    model: str,
    dataset_name: str,
    batch_size: int,
    num_graphs: int = 0,
    n_epochs: int = 2,
) -> RunResult:
    """Timing-only epochs for one configuration (phases, memory, util).

    Results are cached per process: the Fig. 1/2 grids and the Fig. 4/5
    grids are the same runs read through different observables, so one
    process executes each configuration once.
    """
    dataset = load_dataset(dataset_name, num_graphs=num_graphs)
    trainer = GraphClassificationTrainer(framework, model, dataset, batch_size=batch_size)
    return trainer.measure_epoch(n_epochs=n_epochs)


def breakdown_row(result: RunResult) -> Dict[str, float]:
    """Fig. 1/2 series for one run: per-phase seconds per epoch + 'other'."""
    phases = result.mean_phase_times()
    row = {name: phases.get(name, 0.0) for name in PHASE_ORDER if name != "other"}
    row["other"] = max(result.mean_epoch_time - sum(row.values()), 0.0)
    return row


# ----------------------------------------------------------------------
# single-batch setup shared by the step-level benches
# ----------------------------------------------------------------------
def _single_batch(framework: str, config, dataset, batch_size: int, rng: np.random.Generator):
    """(model, batched input, labels) for one training batch of ``dataset``."""
    pack = get_pack(framework)
    net = pack.build_model(config, rng)
    inputs, labels = pack.collate(dataset.graphs[:batch_size])
    return net, inputs, labels


# ----------------------------------------------------------------------
# Fig. 3 (layer-wise execution time of one training batch)
# ----------------------------------------------------------------------
def layerwise_profile(
    framework: str,
    model: str,
    dataset_name: str,
    batch_size: int = 128,
    num_graphs: int = 0,
    seed: int = 0,
) -> Dict[str, float]:
    """Execution time per layer scope for one forward+backward+update step.

    Returns seconds per scope: ``conv1``..``convL``, ``pooling`` and
    ``classifier`` — each the *elapsed* time inside the module (kernel
    durations + launch overhead + framework host work), which is the
    quantity the paper's Fig. 3 plots.  Backward time runs outside module
    scopes (as it does under nvprof) and lands in ``other`` together with
    the optimizer.
    """
    dataset = load_dataset(dataset_name, num_graphs=num_graphs)
    config = graph_config(model, in_dim=dataset.num_features, n_classes=dataset.num_classes)
    device = Device()
    with use_device(device):
        rng = np.random.default_rng(seed)
        net, inputs, labels = _single_batch(framework, config, dataset, batch_size, rng)
        step = train_step(net, Adam(net.parameters(), lr=config.lr), device.clock, cross_entropy)
        step(inputs, labels)  # warm-up (allocators, CSR caches), then profile one step

        device.profiler.enabled = True
        device.profiler.clear()
        before_scopes = dict(device.scope_elapsed)
        before = device.clock.snapshot()
        step(inputs, labels)
        device.profiler.enabled = False

        scopes: Dict[str, float] = {}
        for i in range(config.n_layers):
            scopes[f"conv{i + 1}"] = device.scope_component_time(
                f"conv{i + 1}", since=before_scopes
            )
        scopes["pooling"] = device.scope_component_time("pooling", since=before_scopes)
        scopes["classifier"] = device.scope_component_time("classifier", since=before_scopes)
        step_elapsed = before.delta(device.clock).elapsed
        scopes["other"] = max(step_elapsed - sum(scopes.values()), 0.0)
        return scopes


# ----------------------------------------------------------------------
# repro.compile: eager vs compiled kernel streams
# ----------------------------------------------------------------------
def step_kernel_records(
    framework: str,
    model: str,
    dataset_name: str,
    batch_size: int = 128,
    num_graphs: int = 0,
    seed: int = 0,
    compiled: bool = False,
):
    """Kernel records of one profiled training step, eager or compiled.

    Runs one warm-up step (the capture step, when ``compiled=True``) and
    profiles the next — the same one-batch protocol as the Fig. 3 bench.
    """
    dataset = load_dataset(dataset_name, num_graphs=num_graphs)
    config = graph_config(model, in_dim=dataset.num_features, n_classes=dataset.num_classes)
    device = Device()
    with use_device(device):
        rng = np.random.default_rng(seed)
        net, inputs, labels = _single_batch(framework, config, dataset, batch_size, rng)
        optimizer = Adam(net.parameters(), lr=config.lr)
        step = train_step(net, optimizer, device.clock, cross_entropy)
        step(inputs, labels)  # warm-up: allocators + framework CSR caches
        if compiled:
            step = train_step(net, optimizer, device.clock, cross_entropy, compile=True)
            step(inputs, labels)  # capture step (runs eagerly, builds the plan)
        device.profiler.enabled = True
        device.profiler.clear()
        step(inputs, labels)
        device.profiler.enabled = False
        return list(device.profiler.records)


def compile_cell(
    framework: str,
    model: str,
    dataset_name: str,
    batch_size: int = 128,
    num_graphs: int = 0,
    n_epochs: int = 2,
    seed: int = 0,
) -> Dict:
    """Eager-vs-compiled comparison for one (framework, model) pair.

    Trains the same seeds twice — once eagerly, once through
    ``repro.compile`` — and reports per-epoch time, per-step kernel
    launches, and whether the loss curves match exactly (they must: replay
    re-executes the same numpy program).
    """
    from repro.train import GraphClassificationTrainer

    dataset = load_dataset(dataset_name, num_graphs=num_graphs)
    eager_tr = GraphClassificationTrainer(framework, model, dataset, batch_size=batch_size)
    eager = eager_tr.measure_epoch(n_epochs=n_epochs, seed=seed)
    compiled_tr = GraphClassificationTrainer(
        framework, model, dataset, batch_size=batch_size, compile=True
    )
    comp = compiled_tr.measure_epoch(n_epochs=n_epochs, seed=seed)

    step = compiled_tr.compiled_step
    plan = (
        max(step.plans.values(), key=lambda p: p.eager_launches) if step.plans else None
    )
    eager_losses = [e.train_loss for e in eager.epochs]
    compiled_losses = [e.train_loss for e in comp.epochs]
    return {
        "framework": framework,
        "model": model,
        "dataset": dataset_name,
        "batch_size": batch_size,
        "eager_epoch_time": eager.mean_epoch_time,
        "compiled_epoch_time": comp.mean_epoch_time,
        "speedup": eager.mean_epoch_time / comp.mean_epoch_time
        if comp.mean_epoch_time
        else 1.0,
        "eager_launches_per_step": plan.eager_launches if plan else 0,
        "compiled_launches_per_step": plan.compiled_launches if plan else 0,
        "launch_reduction": plan.launch_reduction if plan else 0.0,
        "captures": step.stats.captures,
        "replays": step.stats.replays,
        "guard_failures": step.stats.guard_failures,
        "pass_stats": {
            "dce_removed": plan.stats.dce_removed,
            "cse_removed": plan.stats.cse_removed,
            "folded": plan.stats.folded,
            "fused_groups": plan.stats.fused_groups,
            "fused_members": plan.stats.fused_members,
        }
        if plan
        else {},
        "eager_losses": eager_losses,
        "compiled_losses": compiled_losses,
        "parity": bool(
            len(eager_losses) == len(compiled_losses)
            and np.allclose(eager_losses, compiled_losses, rtol=1e-6, atol=0.0)
        ),
    }


COMPILE_TABLE = [
    ("model", lambda c: c["model"]),
    ("fw", lambda c: c["framework"]),
    ("eager", lambda c: c["eager_launches_per_step"]),
    ("compiled", lambda c: c["compiled_launches_per_step"]),
    ("saved", lambda c: f"{c['launch_reduction'] * 100:.0f}%"),
    ("eager(ms)", lambda c: f"{c['eager_epoch_time'] * 1e3:.2f}"),
    ("compiled(ms)", lambda c: f"{c['compiled_epoch_time'] * 1e3:.2f}"),
    ("speedup", lambda c: f"{c['speedup']:.2f}x"),
    ("numerics", lambda c: "exact" if c["parity"] else "DIVERGED"),
]


# ----------------------------------------------------------------------
# Overlap (streams + prefetch): executed pipelining vs the projection
# ----------------------------------------------------------------------
def overlap_cell(
    framework: str,
    model: str,
    dataset_name: str,
    batch_size: int = 16,
    num_graphs: int = 0,
    n_epochs: int = 2,
    seed: int = 0,
    compiled: bool = False,
    tolerance: float = 0.05,
) -> Dict:
    """Serial vs prefetch-pipelined training for one configuration.

    Runs the same timing epochs twice — serial, then with
    ``prefetch=True`` — projects the pipelined epoch time from the serial
    phase breakdown (:func:`~repro.bench.overlap.project_overlap`), and
    checks that (a) the executed overlapped epoch lands within
    ``tolerance`` of the projection and (b) losses and test accuracy are
    bitwise identical — prefetching moves time, never numerics.
    """
    from repro.bench.overlap import project_overlap
    from repro.train import GraphClassificationTrainer

    dataset = load_dataset(dataset_name, num_graphs=num_graphs)
    serial_tr = GraphClassificationTrainer(
        framework, model, dataset, batch_size=batch_size, compile=compiled
    )
    serial = serial_tr.measure_epoch(n_epochs=n_epochs, seed=seed)
    projection = project_overlap(serial)
    overlap_tr = GraphClassificationTrainer(
        framework, model, dataset, batch_size=batch_size,
        compile=compiled, prefetch=True,
    )
    overlapped = overlap_tr.measure_epoch(n_epochs=n_epochs, seed=seed)

    serial_losses = [e.train_loss for e in serial.epochs]
    overlap_losses = [e.train_loss for e in overlapped.epochs]
    projected = projection.overlapped_epoch
    gap = (
        abs(overlapped.mean_epoch_time - projected) / projected if projected else 0.0
    )
    return {
        "framework": framework,
        "model": model,
        "dataset": dataset_name,
        "batch_size": batch_size,
        "compiled": compiled,
        "serial_epoch": serial.mean_epoch_time,
        "projected_epoch": projected,
        "overlapped_epoch": overlapped.mean_epoch_time,
        "speedup": (
            serial.mean_epoch_time / overlapped.mean_epoch_time
            if overlapped.mean_epoch_time
            else 1.0
        ),
        "projection_gap": gap,
        "within_projection": bool(gap <= tolerance),
        "serial_utilization": serial.gpu_utilization,
        "overlapped_utilization": overlapped.gpu_utilization,
        "serial_losses": serial_losses,
        "overlapped_losses": overlap_losses,
        "parity": bool(
            serial_losses == overlap_losses and serial.test_acc == overlapped.test_acc
        ),
    }


OVERLAP_TABLE = [
    ("model", lambda c: c["model"]),
    ("fw", lambda c: c["framework"]),
    ("mode", lambda c: "compiled" if c["compiled"] else "eager"),
    ("serial(ms)", lambda c: f"{c['serial_epoch'] * 1e3:.2f}"),
    ("projected(ms)", lambda c: f"{c['projected_epoch'] * 1e3:.2f}"),
    ("executed(ms)", lambda c: f"{c['overlapped_epoch'] * 1e3:.2f}"),
    ("gap", lambda c: f"{c['projection_gap'] * 100:.1f}%"),
    ("speedup", lambda c: f"{c['speedup']:.2f}x"),
    ("util", lambda c: f"{c['serial_utilization'] * 100:.0f}->"
                       f"{c['overlapped_utilization'] * 100:.0f}%"),
    ("numerics", lambda c: "exact" if c["parity"] else "DIVERGED"),
]


# ----------------------------------------------------------------------
# Serving (repro.serve): dynamic-batching inference under open-loop load
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def trained_inference_model(
    framework: str,
    model: str,
    dataset_name: str,
    num_graphs: int = 0,
    train_epochs: int = 2,
    seed: int = 0,
) -> InferenceModel:
    """Briefly train one model and wrap it for serving (cached per process).

    Serving benchmarks care about the latency/throughput of the inference
    path, not converged accuracy, so a couple of epochs suffice — the same
    trade the Fig. 1/2 timing benches make.
    """
    dataset = load_dataset(dataset_name, num_graphs=num_graphs)
    trainer = GraphClassificationTrainer(framework, model, dataset, batch_size=128)
    trainer.measure_epoch(n_epochs=train_epochs, seed=seed)
    return InferenceModel(framework, trainer.final_model, trainer.config, dataset_name)


def serving_cell(
    framework: str,
    model: str,
    dataset_name: str,
    arrivals: Sequence[float],
    max_batch_size: int = 32,
    max_nodes: Optional[int] = 4096,
    queue_capacity: int = 128,
    deadline: Optional[float] = None,
    num_graphs: int = 0,
    train_epochs: int = 2,
    seed: int = 0,
) -> ServingResult:
    """Replay one arrival trace against a briefly-trained model."""
    inference = trained_inference_model(
        framework, model, dataset_name, num_graphs, train_epochs, seed
    )
    simulator = ServeSimulator(
        inference,
        DynamicBatcher(max_batch_size=max_batch_size, max_nodes=max_nodes),
        queue_capacity=queue_capacity,
        deadline=deadline,
    )
    dataset = load_dataset(dataset_name, num_graphs=num_graphs)
    return simulator.replay(dataset.graphs, arrivals)


#: Over serving cells (``serialize.serving_to_dict``), as BENCH_serving.json holds them.
SERVING_TABLE = [
    ("model", lambda c: c["model"]),
    ("fw", lambda c: c["framework"]),
    ("done", lambda c: c["completed"]),
    ("shed", lambda c: c["shed"]),
    ("p50(ms)", lambda c: f"{c['latency_percentiles']['50.0'] * 1e3:.2f}"),
    ("p95(ms)", lambda c: f"{c['latency_percentiles']['95.0'] * 1e3:.2f}"),
    ("p99(ms)", lambda c: f"{c['latency_percentiles']['99.0'] * 1e3:.2f}"),
    ("req/s", lambda c: f"{c['throughput']:.0f}"),
    ("batch", lambda c: f"{c['mean_batch_size']:.2f}"),
    ("maxq", lambda c: c["max_queue_depth"]),
]


# ----------------------------------------------------------------------
# Fault injection (repro.faults): goodput/latency under scheduled faults
# ----------------------------------------------------------------------
def faults_cell(
    framework: str,
    model: str,
    dataset_name: str,
    arrivals: Sequence[float],
    fault_rate: float = 0.0,
    fault_seed: int = 0,
    max_batch_size: int = 32,
    queue_capacity: int = 128,
    num_graphs: int = 0,
    train_epochs: int = 2,
    seed: int = 0,
) -> Dict:
    """One serving run under a seeded fault schedule.

    ``fault_rate`` is applied as the per-alloc OOM probability, the
    per-launch transient-kernel-fault probability and the per-launch stall
    probability.  ``fault_rate=0`` is the fault-free baseline the sweep is
    compared against.
    """
    from repro.faults import FaultPlan

    inference = trained_inference_model(
        framework, model, dataset_name, num_graphs, train_epochs, seed
    )
    plan = None
    if fault_rate:
        plan = FaultPlan(
            seed=fault_seed,
            oom_rate=fault_rate,
            kernel_fault_rate=fault_rate,
            stall_rate=fault_rate,
        )
    simulator = ServeSimulator(
        inference,
        DynamicBatcher(max_batch_size=max_batch_size, max_nodes=4096),
        queue_capacity=queue_capacity,
        fault_plan=plan,
    )
    dataset = load_dataset(dataset_name, num_graphs=num_graphs)
    result = simulator.replay(dataset.graphs, arrivals)
    return {
        "framework": framework,
        "model": model,
        "dataset": dataset_name,
        "fault_rate": fault_rate,
        "fault_seed": fault_seed,
        "n_requests": result.n_requests,
        "completed": result.completed,
        "shed": result.shed,
        "failed": result.failed,
        "resolved": result.resolved,
        "shed_by_reason": dict(result.shed_by_reason),
        "failed_by_reason": dict(result.failed_by_reason),
        "retries": result.retries,
        "batch_splits": result.batch_splits,
        "circuit_opens": result.circuit_opens,
        "goodput": result.goodput,
        "p50": result.p50,
        "p99": result.p99,
        "mean_batch_size": result.mean_batch_size,
        "elapsed": result.elapsed,
    }


FAULTS_TABLE = [
    ("rate", lambda c: f"{c['fault_rate']:.3f}"),
    ("model", lambda c: c["model"]),
    ("fw", lambda c: c["framework"]),
    ("done", lambda c: c["completed"]),
    ("shed", lambda c: c["shed"]),
    ("failed", lambda c: c["failed"]),
    ("retries", lambda c: c["retries"]),
    ("splits", lambda c: c["batch_splits"]),
    ("opens", lambda c: c["circuit_opens"]),
    ("goodput", lambda c: f"{c['goodput']:.0f}"),
    ("p99(ms)", lambda c: f"{c['p99'] * 1e3:.2f}"),
]
