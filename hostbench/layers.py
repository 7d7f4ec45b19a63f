"""Turn a finished trace into the per-layer metrics of ``metrics.PER_LAYER``.

Times are per lap: the median over the traced laps of each lap's total.
Counts are per lap and identical on every lap (the work is fixed).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from hostbench.stats import median
from hostbench.trace import Span, totals_by_root

_EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0}


def from_trace(
    spans: List[Span], lap_counters: Sequence[Dict[str, List[float]]], plain_lap_s: Sequence[float]
) -> Dict[str, float]:
    laps = totals_by_root(spans, "lap")

    def per_lap(name: str, field: str) -> float:
        return median([lap.get(name, _EMPTY)[field] for lap in laps])

    def counter(name: str, slot: int) -> float:
        return median([c.get(name, [0, 0.0])[slot] for c in lap_counters])

    out: Dict[str, float] = {}
    for pack in ("pygx", "dglx"):
        out[f"{pack}.collate_s"] = per_lap(f"{pack}.collate", "total_s")
        out[f"{pack}.collate_batches"] = per_lap(f"{pack}.collate", "calls")
    out["nn.forward_s"] = per_lap("nn.forward", "total_s")
    out["nn.forward_calls"] = per_lap("nn.forward", "calls")
    out["tensor.backward_s"] = per_lap("tensor.backward", "total_s")
    out["tensor.backward_calls"] = per_lap("tensor.backward", "calls")
    out["optim.step_s"] = per_lap("optim.step", "total_s")
    out["optim.steps"] = per_lap("optim.step", "calls")

    out["device.launch_calls"] = counter("device.launch", 0)
    out["device.launch_s"] = counter("device.launch", 1)
    out["device.launch_us"] = _ratio(out["device.launch_s"], out["device.launch_calls"]) * 1e6
    out["device.host_calls"] = counter("device.host", 0)
    out["device.transfer_calls"] = counter("device.transfer", 0)

    out["compile.capture_s"] = per_lap("compile.capture", "total_s")
    out["compile.captures"] = per_lap("compile.capture", "calls")
    out["compile.replay_s"] = per_lap("compile.replay", "total_s")
    out["compile.replays"] = per_lap("compile.replay", "calls")
    out["compile.replay_step_ms"] = _ratio(out["compile.replay_s"], out["compile.replays"]) * 1e3
    out["compile.guard_failures"] = per_lap("compile.guard_failure", "calls")
    out["compile.self_s"] = sum(
        per_lap(f"compile.{kind}", "self_s") for kind in ("capture", "replay", "guard_failure", "eager")
    )

    out["train.loop_self_s"] = per_lap("train.loop", "self_s")
    out["train.steps"] = out["optim.steps"] if per_lap("train.loop", "calls") else 0
    for layer in ("serve", "fleet"):
        out[f"{layer}.replay_s"] = per_lap(f"{layer}.replay", "total_s")
        out[f"{layer}.loop_self_s"] = per_lap(f"{layer}.replay", "self_s")

    out["trace.lap_s"] = per_lap("lap", "total_s")
    out["trace.overhead_frac"] = out["trace.lap_s"] / median(plain_lap_s) - 1.0
    # What no layer span covers: trainer and simulator construction.
    out["trace.unaccounted_frac"] = per_lap("lap", "self_s") / out["trace.lap_s"]
    return out


def from_record(record: Dict, traced: Dict[str, float], build_s: float) -> Dict[str, float]:
    """Per-layer numbers read off the lap's deterministic record."""
    accounting = record["accounting"]
    served = sum(part["n"] for name, part in accounting.items() if name.startswith("serve/"))
    fleet = accounting.get("fleet", {}).get("n", 0)
    return {
        "device.sim_gpu_util": record["sim_gpu_busy_s"] / record["sim_s"],
        "serve.batches": record.get("serve_batches", 0),
        "serve.mean_batch": record.get("serve_mean_batch", 0.0),
        "serve.requests_per_host_s": _ratio(served, traced["serve.replay_s"]),
        "fleet.cache_hit_rate": record.get("fleet_cache_hit_rate", 0.0),
        "fleet.requests_per_host_s": _ratio(fleet, traced["fleet.replay_s"]),
        "datasets.build_s": build_s,
        "sim_s": record["sim_s"],
        "sim_peak_mem_mb": record["sim_peak_mem_mb"],
        "sim_p99_ms": record.get("sim_p99_ms", 0.0),
        "sim_goodput_rps": record.get("sim_goodput_rps", 0.0),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
