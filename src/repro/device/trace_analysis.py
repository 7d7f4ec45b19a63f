"""Analysis over profiled kernel records.

Post-processing the profiler's kernel stream the way one works with an
nvprof export: top kernels by time, launch statistics, and an Amdahl-style
bound on what overlapping host work with device work could achieve — the
quantitative backing for the paper's Section IV-D optimisation advice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.device.kernel import KernelRecord


@dataclass(frozen=True)
class KernelStats:
    """Aggregate statistics for one kernel name."""

    name: str
    launches: int
    total_time: float
    mean_time: float
    total_flops: float
    total_bytes: float

def kernel_stats(records: Sequence[KernelRecord]) -> List[KernelStats]:
    """Per-kernel-name aggregates, sorted by total time descending."""
    buckets: Dict[str, List[KernelRecord]] = {}
    for record in records:
        buckets.setdefault(record.name, []).append(record)
    stats = [
        KernelStats(
            name=name,
            launches=len(group),
            total_time=sum(r.duration for r in group),
            mean_time=sum(r.duration for r in group) / len(group),
            total_flops=sum(r.flops for r in group),
            total_bytes=sum(r.bytes_moved for r in group),
        )
        for name, group in buckets.items()
    ]
    return sorted(stats, key=lambda s: s.total_time, reverse=True)


def top_kernels(records: Sequence[KernelRecord], k: int = 10) -> List[KernelStats]:
    """The ``k`` most expensive kernels by total device time."""
    return kernel_stats(records)[:k]


def launch_bound_fraction(
    records: Sequence[KernelRecord], launch_overhead: float
) -> float:
    """Fraction of (kernel + launch) time spent in launch overhead.

    Near 1.0 means the workload is launch-bound — the regime that makes
    ENZYMES epochs shrink with batch size (Fig. 1); near 0.0 means
    bandwidth/compute-bound (DD, Fig. 2).
    """
    if not records:
        return 0.0
    kernel_time = sum(r.duration for r in records)
    launch_time = launch_overhead * len(records)
    return launch_time / (kernel_time + launch_time)


def overlap_bound(gpu_busy: float, elapsed: float) -> Tuple[float, float]:
    """(ideal overlapped time, max speedup) for a measured interval.

    With perfect overlap of host and device work the interval cannot run
    faster than ``max(gpu_busy, host_time)``; returns that bound and the
    implied speedup over the serial elapsed time.
    """
    if elapsed <= 0.0:
        return 0.0, 1.0
    host_time = max(elapsed - gpu_busy, 0.0)
    ideal = max(gpu_busy, host_time)
    return ideal, elapsed / ideal if ideal > 0 else 1.0
