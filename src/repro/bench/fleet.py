"""repro.bench.fleet — fleet-serving benchmark (goodput/p99 vs replicas).

The fleet analogue of the serving/faults benches: replay one bursty
three-tenant trace (:func:`repro.fleet.bursty_multitenant_trace`) against
:class:`repro.fleet.FleetSimulator` across four sections —

* ``replicas`` — goodput/p99 as the fleet grows 1 -> 2 -> 4 -> 8 under
  power-of-two-choices routing (the throughput-scaling headline);
* ``policy``  — round-robin vs least-loaded vs power-of-two-choices at
  the largest fleet, where per-replica queue imbalance is the bottleneck
  (p2c must beat round-robin's load-blind rotation at high load);
* ``chaos``   — replica losses + injected device faults mid-trace, with
  the per-tenant no-silent-loss invariant asserted;
* ``autoscale`` — a one-replica fleet absorbing the same burst by warm-
  starting replicas (weights over PCIe via the device cost model).

The workload is DD/GCN: DD's node-count variance (284 +- 147 nodes per
graph) is what makes service times heterogeneous enough for routing
policy to matter — with near-uniform service times, deterministic
round-robin is already an optimal count-balancer.

Everything runs on the simulated clock from seeded RNG streams, so every
cell — goodput, percentiles, shed/failed counts, cache hit-rate — is
exactly deterministic and CI gates it against the committed
``BENCH_fleet.json``.

CLI (the ``fleet`` record of :mod:`repro.bench.experiments`)::

    python -m repro.bench.report fleet
    python -m repro.bench.report fleet --kinds replicas --replicas 1 2 --json out.json
    python -m repro.bench.report fleet --chrome-trace fleet.trace.json --json out.json
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.bench.tables import render_table
from repro.fleet import (
    POLICY_NAMES,
    Arrival,
    AutoscalerConfig,
    ChaosPlan,
    FleetResult,
    FleetSimulator,
    ResultCache,
    bursty_multitenant_trace,
)
from repro.serve import DynamicBatcher

#: The benchmark workload: one briefly-trained DD/GCN inference model.
FLEET_FRAMEWORK = "pygx"
FLEET_MODEL = "gcn"
FLEET_DATASET = "dd"
FLEET_NUM_GRAPHS = 90
FLEET_TRAIN_EPOCHS = 1

#: Default grids.
FLEET_KINDS = ("replicas", "policy", "chaos", "autoscale")
REPLICA_SWEEP = (1, 2, 4, 8)
#: Trace pressure: rate multiplier over the canonical three-tenant trace.
TRACE_SCALE = 8.0
TRACE_REQUESTS = 500

def fleet_trace(
    n_requests: int = TRACE_REQUESTS,
    scale: float = TRACE_SCALE,
    seed: int = 0,
) -> List[Arrival]:
    """The benchmark's arrival trace (bursty, three tenants, seeded)."""
    return bursty_multitenant_trace(
        n_samples=FLEET_NUM_GRAPHS, scale=scale, n_requests=n_requests, seed=seed
    )


def fleet_simulator(
    inference,
    n_replicas: int,
    policy: str = "p2c",
    autoscaler: Optional[AutoscalerConfig] = None,
    chaos: Optional[ChaosPlan] = None,
    seed: int = 0,
) -> FleetSimulator:
    """The benchmark's simulator configuration.

    ``max_nodes=1536`` keeps batches to a handful of DD graphs, so batch
    service time tracks the node-count draw — the heterogeneity that
    separates the routing policies.
    """
    return FleetSimulator(
        inference,
        n_replicas=n_replicas,
        policy=policy,
        batcher=DynamicBatcher(max_batch_size=16, max_nodes=1536),
        queue_capacity=48,
        cache=ResultCache(24),
        autoscaler=autoscaler,
        chaos=chaos,
        seed=seed,
    )


def chaos_plan() -> ChaosPlan:
    """Two mid-trace replica losses with device faults firing throughout."""
    from repro.faults import FaultPlan

    return ChaosPlan(
        seed=3,
        loss_times=(0.01, 0.03),
        downtime=0.02,
        fault_plan=FaultPlan(seed=5, kernel_fault_rate=0.02, oom_rate=0.01),
    )


def autoscaler_config() -> AutoscalerConfig:
    """The autoscale cell's control loop: grow 1 -> up-to-8 on queue depth."""
    return AutoscalerConfig(
        min_replicas=1,
        max_replicas=8,
        interval=0.005,
        scale_up_queue_depth=6.0,
        cooldown=0.01,
    )


def fleet_cell_dict(kind: str, result: FleetResult, trace_scale: float) -> Dict:
    """Flatten one replay into the ``BENCH_fleet.json`` cell schema."""
    return {
        "kind": kind,
        "policy": result.policy,
        "replicas": result.initial_replicas,
        "peak_replicas": result.peak_replicas,
        "final_replicas": result.final_replicas,
        "framework": result.framework,
        "model": result.model,
        "dataset": result.dataset,
        "trace_scale": trace_scale,
        "n_requests": result.n_requests,
        "completed": result.completed,
        "shed": result.shed,
        "failed": result.failed,
        "resolved": result.resolved,
        "no_silent_loss": result.no_silent_loss,
        "goodput": result.goodput,
        "p50": result.p50,
        "p95": result.p95,
        "p99": result.p99,
        "mean_latency": result.mean_latency,
        "mean_batch_size": result.mean_batch_size,
        "elapsed": result.elapsed,
        "gpu_utilization": result.gpu_utilization,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "cache_hit_rate": result.cache_hit_rate,
        "retries": result.retries,
        "batch_splits": result.batch_splits,
        "circuit_opens": result.circuit_opens,
        "reroutes": result.reroutes,
        "replica_losses": result.replica_losses,
        "scale_ups": result.scale_ups,
        "scale_downs": result.scale_downs,
        "shed_by_reason": dict(result.shed_by_reason),
        "failed_by_reason": dict(result.failed_by_reason),
        "tenants": {
            name: {
                "tier": result.tiers[name],
                "n_requests": t.n_requests,
                "completed": t.completed,
                "shed": t.shed,
                "failed": t.failed,
                "resolved": t.resolved,
                "p99": t.p99,
            }
            for name, t in result.tenants.items()
        },
    }


def run_fleet_cell(
    kind: str,
    inference,
    samples: Sequence,
    trace: Sequence[Arrival],
    n_replicas: int,
    policy: str = "p2c",
    autoscaler: Optional[AutoscalerConfig] = None,
    chaos: Optional[ChaosPlan] = None,
    trace_scale: float = TRACE_SCALE,
    seed: int = 0,
    chrome_trace: Optional[str] = None,
) -> Dict:
    """Replay the trace once under one fleet configuration."""
    simulator = fleet_simulator(
        inference, n_replicas, policy, autoscaler=autoscaler, chaos=chaos, seed=seed
    )
    result = simulator.replay(samples, trace)
    if chrome_trace:
        simulator.write_trace(chrome_trace)
    return fleet_cell_dict(kind, result, trace_scale)


def fleet_grid(
    kinds: Optional[Sequence[str]] = None,
    replicas: Optional[Sequence[int]] = None,
    policies: Optional[Sequence[str]] = None,
    n_requests: int = TRACE_REQUESTS,
    scale: float = TRACE_SCALE,
    seed: int = 0,
    chrome_trace: Optional[str] = None,
) -> List[Dict]:
    """Run the benchmark grid; one dict per cell, section order.

    ``chrome_trace`` (a path) captures the largest ``replicas``-section
    fleet as a Chrome trace with one track per replica stream.
    """
    from repro.bench.runner import trained_inference_model
    from repro.datasets import load_dataset

    kinds = tuple(kinds or FLEET_KINDS)
    replicas = tuple(replicas or REPLICA_SWEEP)
    policies = tuple(policies or POLICY_NAMES)
    for kind in kinds:
        if kind not in FLEET_KINDS:
            raise ValueError(f"unknown kind {kind!r}; options: {FLEET_KINDS}")

    inference = trained_inference_model(
        FLEET_FRAMEWORK, FLEET_MODEL, FLEET_DATASET,
        num_graphs=FLEET_NUM_GRAPHS, train_epochs=FLEET_TRAIN_EPOCHS, seed=seed,
    )
    samples = load_dataset(FLEET_DATASET, num_graphs=FLEET_NUM_GRAPHS).graphs
    trace = fleet_trace(n_requests=n_requests, scale=scale, seed=seed)

    cells: List[Dict] = []
    if "replicas" in kinds:
        for n in replicas:
            cells.append(
                run_fleet_cell(
                    "replicas", inference, samples, trace, n, "p2c",
                    trace_scale=scale, seed=seed,
                    chrome_trace=chrome_trace if n == max(replicas) else None,
                )
            )
    if "policy" in kinds:
        for policy in policies:
            cells.append(
                run_fleet_cell(
                    "policy", inference, samples, trace, max(replicas), policy,
                    trace_scale=scale, seed=seed,
                )
            )
    if "chaos" in kinds:
        cells.append(
            run_fleet_cell(
                "chaos", inference, samples, trace, 4, "p2c",
                chaos=chaos_plan(), trace_scale=scale, seed=seed,
            )
        )
    if "autoscale" in kinds:
        cells.append(
            run_fleet_cell(
                "autoscale", inference, samples, trace, 1, "p2c",
                autoscaler=autoscaler_config(), trace_scale=scale, seed=seed,
            )
        )
    return cells


def fleet_document(cells: Sequence[Dict]) -> Dict:
    """Wrap cells in the ``BENCH_fleet.json`` document shape."""
    return {
        "experiment": "fleet",
        "workload": {
            "framework": FLEET_FRAMEWORK,
            "model": FLEET_MODEL,
            "dataset": FLEET_DATASET,
            "num_graphs": FLEET_NUM_GRAPHS,
        },
        "cells": list(cells),
    }


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------
#: The per-cell report table.
FLEET_TABLE = [
    ("kind", lambda c: c["kind"]),
    ("policy", lambda c: c["policy"]),
    ("reps", lambda c: c["replicas"]),
    ("peak", lambda c: c["peak_replicas"]),
    ("done", lambda c: c["completed"]),
    ("shed", lambda c: c["shed"]),
    ("fail", lambda c: c["failed"]),
    ("goodput", lambda c: f"{c['goodput']:.0f}"),
    ("p50(ms)", lambda c: f"{c['p50'] * 1e3:.2f}"),
    ("p99(ms)", lambda c: f"{c['p99'] * 1e3:.2f}"),
    ("cache%", lambda c: f"{c['cache_hit_rate'] * 100:.0f}"),
    ("nsl", lambda c: "yes" if c["no_silent_loss"] else "LOST"),
]

#: Per-tenant accounting of one chaos cell, over ``(name, tenant)`` items.
TENANT_TABLE = [
    ("tenant", lambda nt: nt[0]),
    ("tier", lambda nt: nt[1]["tier"]),
    ("requests", lambda nt: nt[1]["n_requests"]),
    ("done", lambda nt: nt[1]["completed"]),
    ("shed", lambda nt: nt[1]["shed"]),
    ("fail", lambda nt: nt[1]["failed"]),
    ("resolved", lambda nt: "yes" if nt[1]["resolved"] == nt[1]["n_requests"] else "LOST"),
]


def fleet_report(cells: Sequence[Dict]) -> str:
    """The fleet report: per-cell table + per-tenant chaos accounting."""
    out = render_table(
        FLEET_TABLE,
        cells,
        title=(
            "repro.bench.fleet: goodput/p99 vs replicas, routing policies, "
            "chaos, autoscaling (DD/GCN, bursty 3-tenant trace)"
        ),
    )
    tenants = [
        item
        for cell in cells
        if cell["kind"] == "chaos"
        for item in sorted(cell["tenants"].items())
    ]
    if tenants:
        out += "\n" + render_table(
            TENANT_TABLE,
            tenants,
            title="Per-tenant accounting under chaos (no silent loss)",
        )
    return out
