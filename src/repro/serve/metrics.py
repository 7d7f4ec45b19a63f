"""Serving-side observability: latency percentiles, throughput, shedding.

Everything is measured against the simulated clock, so a serving run
produces the same kind of phase breakdown as the training figures
(data_loading / forward / idle) plus the latency-distribution metrics a
production service is judged by (p50/p95/p99, throughput, shed rate).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

import numpy as np

from repro.serve.request import InferenceRequest, InferenceResponse

LATENCY_PERCENTILES = (50.0, 95.0, 99.0)


def nearest_rank_percentile(values, p: float) -> float:
    """Nearest-rank percentile, well-defined on 0- and 1-sample windows.

    The classic nearest-rank formula ``sorted[ceil(p/100 * n) - 1]`` indexes
    past the end of a 0-sample window and is ambiguous at ``p=0``; this
    version pins both edges: an empty window reports ``0.0`` (no latency
    observed yet — the value an autoscaler should treat as "no signal"),
    and a 1-sample window reports that sample for every percentile.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    xs = np.sort(np.asarray(values, dtype=np.float64))
    if xs.size == 0:
        return 0.0
    rank = int(np.ceil(p / 100.0 * xs.size))
    return float(xs[min(max(rank, 1), xs.size) - 1])


@dataclass
class ServingResult:
    """Summary of one serving run (one model under one traffic trace).

    The one result type of ``repro.serve`` and ``repro.fleet``: a
    :class:`~repro.fleet.FleetResult` is one, and so is each tenant's
    slice of a fleet replay in ``tenants``.
    """

    framework: str
    model: str
    dataset: str
    n_requests: int
    completed: int
    shed: int
    #: Shed requests by reason: ``queue_full`` (admission) / ``deadline``.
    shed_by_reason: Dict[str, int]
    #: Latency percentiles in simulated seconds, keyed ``50.0/95.0/99.0``.
    latency_percentiles: Dict[float, float]
    mean_latency: float
    mean_queue_delay: float
    #: Completed requests per simulated second.
    throughput: float
    mean_batch_size: float
    #: Batch size -> number of batches dispatched at that size.
    batch_size_histogram: Dict[int, int]
    max_queue_depth: int
    mean_queue_depth: float
    #: Total simulated wall time of the run (arrival of first request to
    #: completion of the last served one).
    elapsed: float
    gpu_utilization: float
    busy_fraction: float
    #: Per-phase elapsed seconds (data_loading / forward / idle).
    phase_times: Dict[str, float]
    #: Requests that ended in an explicit failure response (retries
    #: exhausted on a kernel fault, or an unsplittable OOM) — never
    #: silently dropped.
    failed: int = 0
    failed_by_reason: Dict[str, int] = field(default_factory=dict)
    #: Dispatch retries after transient kernel faults.
    retries: int = 0
    #: OOM-triggered batch halvings (each split serves both halves).
    batch_splits: int = 0
    #: Times the circuit breaker tripped open during the run.
    circuit_opens: int = 0
    #: Distinct request ids among the resolved; below ``resolved`` when
    #: some request got two outcomes.
    distinct_resolved: int = 0
    #: Tenant name -> that tenant's slice of the run (empty off a fleet).
    tenants: Dict[str, ServingResult] = field(default_factory=dict)

    @property
    def p50(self) -> float:
        return self.latency_percentiles[50.0]

    @property
    def p95(self) -> float:
        return self.latency_percentiles[95.0]

    @property
    def p99(self) -> float:
        return self.latency_percentiles[99.0]

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.n_requests if self.n_requests else 0.0

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.n_requests if self.n_requests else 0.0

    @property
    def resolved(self) -> int:
        """Requests that got *some* explicit outcome (the lot, ideally)."""
        return self.completed + self.shed + self.failed

    @property
    def goodput(self) -> float:
        """Successful responses per simulated second (completed only)."""
        return self.throughput

    @property
    def no_silent_loss(self) -> bool:
        """Every request resolved exactly once, and so within every tenant."""
        return self.resolved == self.n_requests == self.distinct_resolved and all(
            tenant.no_silent_loss for tenant in self.tenants.values()
        )


@dataclass
class ServerMetrics:
    """Accumulates per-request and per-batch observations during a run."""

    responses: List[InferenceResponse] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    queue_depth_samples: List[int] = field(default_factory=list)
    shed_by_reason: Counter = field(default_factory=Counter)
    failed_by_reason: Counter = field(default_factory=Counter)
    retries: int = 0
    batch_splits: int = 0
    #: Every request id that reached an explicit outcome (completed, shed
    #: or failed).  The no-silent-loss invariant: after a run it holds
    #: ``completed + shed + failed`` ids, so no request resolved twice.
    resolved_ids: Set[int] = field(default_factory=set)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_batch(self, responses: List[InferenceResponse]) -> None:
        self.responses.extend(responses)
        self.batch_sizes.append(len(responses))
        self.resolved_ids.update(r.request_id for r in responses)

    def record_shed(self, reason: str, requests: Sequence[InferenceRequest]) -> None:
        self.shed_by_reason[reason] += len(requests)
        self.resolved_ids.update(r.request_id for r in requests)

    def record_failure(self, reason: str, requests: Sequence[InferenceRequest]) -> None:
        """An explicit failure outcome for each request (retries exhausted, OOM)."""
        self.failed_by_reason[reason] += len(requests)
        self.resolved_ids.update(r.request_id for r in requests)

    def record_retry(self, count: int = 1) -> None:
        self.retries += count

    def record_split(self) -> None:
        self.batch_splits += 1

    def sample_queue_depth(self, depth: int) -> None:
        self.queue_depth_samples.append(depth)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        return len(self.responses)

    @property
    def shed(self) -> int:
        return sum(self.shed_by_reason.values())

    @property
    def failed(self) -> int:
        return sum(self.failed_by_reason.values())

    def latencies(self) -> np.ndarray:
        return np.array([r.latency for r in self.responses], dtype=np.float64)

    def latency_percentiles(self) -> Dict[float, float]:
        lat = self.latencies()
        if lat.size == 0:
            return {p: 0.0 for p in LATENCY_PERCENTILES}
        return {p: float(np.percentile(lat, p)) for p in LATENCY_PERCENTILES}

    def window_latency_percentiles(self, window: int) -> Dict[float, float]:
        """p50/p95/p99 over the most recent ``window`` responses.

        Uses the nearest-rank estimator (:func:`nearest_rank_percentile`), so
        the result is an *observed* latency, and 0- and 1-sample windows are
        well-defined (``0.0`` / the sample) instead of indexing past the end.
        This is the sliding signal load-aware control loops (the fleet
        autoscaler) consume mid-run, when the window may hold almost nothing.
        """
        if window <= 0:
            raise ValueError("window must be positive")
        recent = [r.latency for r in self.responses[-window:]]
        return {p: nearest_rank_percentile(recent, p) for p in LATENCY_PERCENTILES}

    def summary(
        self,
        framework: str,
        model: str,
        dataset: str,
        n_requests: int,
        elapsed: float,
        gpu_utilization: float,
        busy_fraction: float,
        phase_times: Dict[str, float],
        circuit_opens: int = 0,
    ) -> ServingResult:
        lat = self.latencies()
        delays = np.array([r.queue_delay for r in self.responses], dtype=np.float64)
        return ServingResult(
            framework=framework,
            model=model,
            dataset=dataset,
            n_requests=n_requests,
            completed=self.completed,
            shed=self.shed,
            shed_by_reason=dict(self.shed_by_reason),
            latency_percentiles=self.latency_percentiles(),
            mean_latency=float(lat.mean()) if lat.size else 0.0,
            mean_queue_delay=float(delays.mean()) if delays.size else 0.0,
            throughput=self.completed / elapsed if elapsed > 0 else 0.0,
            mean_batch_size=float(np.mean(self.batch_sizes)) if self.batch_sizes else 0.0,
            batch_size_histogram=dict(Counter(self.batch_sizes)),
            max_queue_depth=max(self.queue_depth_samples, default=0),
            mean_queue_depth=(
                float(np.mean(self.queue_depth_samples)) if self.queue_depth_samples else 0.0
            ),
            elapsed=elapsed,
            gpu_utilization=gpu_utilization,
            busy_fraction=busy_fraction,
            phase_times=dict(phase_times),
            failed=self.failed,
            failed_by_reason=dict(self.failed_by_reason),
            retries=self.retries,
            batch_splits=self.batch_splits,
            circuit_opens=circuit_opens,
            distinct_resolved=len(self.resolved_ids),
        )
