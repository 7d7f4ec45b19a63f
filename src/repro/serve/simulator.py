"""Open-loop serving simulation against the simulated device clock.

The simulator replays an exogenous arrival trace (requests arrive whether
or not the server keeps up — the open-loop regime production services live
in) against one :class:`~repro.serve.registry.InferenceModel`.  Service
work (collation + forward) advances the simulated clock exactly as training
does; quiet periods fast-forward via :meth:`SimClock.advance_idle`, so
throughput, latency and utilisation all come out of the same clock that
produces the paper's Figs. 1-2 breakdowns.

The dispatch path degrades gracefully under faults (injected via a
``repro.faults`` :class:`FaultPlan`, or anything that raises the same
errors) through :func:`repro.serve.resilience.serve_with_recovery`.
Every admitted request ends in exactly one of *response*, *shed* or
*explicit failure* — nothing is silently lost.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from repro.device import Device, use_device
from repro.graph import GraphSample, as_generator
from repro.graph.graph import RngLike
from repro.serve.batcher import DynamicBatcher
from repro.serve.metrics import ServerMetrics, ServingResult
from repro.serve.queue import AdmissionController, RequestQueue
from repro.serve.registry import InferenceModel
from repro.serve.request import InferenceRequest, InferenceResponse, Overloaded
from repro.serve.resilience import CircuitBreaker, RetryPolicy, serve_with_recovery


# ----------------------------------------------------------------------
# arrival traces
# ----------------------------------------------------------------------
def poisson_trace(n_requests: int, rate: float, rng: RngLike = None) -> np.ndarray:
    """Arrival times of a Poisson process with ``rate`` requests/second."""
    if n_requests <= 0:
        raise ValueError("n_requests must be positive")
    if rate <= 0:
        raise ValueError("rate must be positive")
    gaps = as_generator(rng).exponential(1.0 / rate, size=n_requests)
    return np.cumsum(gaps)


def bursty_trace(
    n_requests: int,
    burst_size: int,
    burst_rate: float,
    idle_gap: float,
    rng: RngLike = None,
) -> np.ndarray:
    """On/off traffic: Poisson bursts of ``burst_size`` split by idle gaps.

    Within a burst, arrivals come at ``burst_rate``; between bursts the
    source goes quiet for ``idle_gap`` seconds.  This is the trace that
    exercises admission control: a burst can exceed queue capacity even
    when the long-run average rate is sustainable.
    """
    if burst_size <= 0:
        raise ValueError("burst_size must be positive")
    if idle_gap < 0:
        raise ValueError("idle_gap must be non-negative")
    generator = as_generator(rng)
    times: List[float] = []
    t = 0.0
    while len(times) < n_requests:
        for _ in range(min(burst_size, n_requests - len(times))):
            t += float(generator.exponential(1.0 / burst_rate))
            times.append(t)
        t += idle_gap
    return np.array(times)


def validate_arrivals(arrival_times: Sequence[float]) -> np.ndarray:
    """The trace as float64, or a ``ValueError`` naming its first bad entry.

    Both replay loops fast-forward the clock to the next arrival.  A NaN
    there compares False with everything, so the loop would neither admit
    the request nor advance — checked here, before the first event.
    """
    arrivals = np.asarray(arrival_times, dtype=np.float64)
    if arrivals.size == 0:
        raise ValueError("arrival trace is empty")
    finite = np.isfinite(arrivals)
    if not finite.all():
        index = int(np.argmin(finite))
        raise ValueError(
            f"arrival times must be finite: arrival_times[{index}] = {arrivals[index]}"
        )
    drops = np.diff(arrivals) < 0
    if drops.any():
        index = int(np.argmax(drops)) + 1
        raise ValueError(
            f"arrival times must be non-decreasing: arrival_times[{index}] = "
            f"{arrivals[index]} follows {arrivals[index - 1]}"
        )
    return arrivals


# ----------------------------------------------------------------------
# the simulator
# ----------------------------------------------------------------------
class ServeSimulator:
    """Single-server discrete-event replay of an arrival trace."""

    def __init__(
        self,
        inference: InferenceModel,
        batcher: Optional[DynamicBatcher] = None,
        queue_capacity: int = 256,
        deadline: Optional[float] = None,
        device: Optional[Device] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        fault_plan=None,
    ) -> None:
        self.inference = inference
        self.batcher = batcher or DynamicBatcher()
        if queue_capacity <= 0:
            raise ValueError("queue capacity must be positive")
        self.queue_capacity = queue_capacity
        self.deadline = deadline
        self.device = device or Device()
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        #: Optional :class:`~repro.faults.FaultPlan` injected for the whole
        #: replay (seeded — the same plan reproduces the same run exactly).
        self.fault_plan = fault_plan

    def replay(
        self, samples: Sequence[GraphSample], arrival_times: Sequence[float]
    ) -> ServingResult:
        """Serve one request per arrival time, cycling over ``samples``.

        The loop alternates between admitting every request whose arrival
        time has passed, dispatching one dynamically-batched micro-batch,
        and — when the queue is empty — fast-forwarding the clock to the
        next arrival.
        """
        arrivals = validate_arrivals(arrival_times)
        if not samples:
            raise ValueError("need at least one graph sample to serve")
        requests = [
            InferenceRequest(i, samples[i % len(samples)], float(t))
            for i, t in enumerate(arrivals)
        ]

        injecting = (
            self.device.injecting(self.fault_plan)
            if self.fault_plan is not None
            else nullcontext()
        )
        with use_device(self.device), injecting:
            clock = self.device.clock
            queue = RequestQueue(self.queue_capacity)
            admission = AdmissionController(queue, default_deadline=self.deadline)
            metrics = ServerMetrics()
            start = clock.snapshot()
            t0 = clock.elapsed
            idle0 = clock.idle
            serve = partial(
                serve_with_recovery,
                run=lambda part: self._run_batch(part, metrics, clock, t0),
                backoff=self._backoff,
                fail=metrics.record_failure,
                metrics=metrics,
                retry_policy=self.retry_policy,
                breaker=self.breaker,
                now=lambda: clock.elapsed - t0,
            )
            n = len(requests)
            i = 0  # next request not yet offered to admission
            while True:
                now = clock.elapsed - t0
                while i < n and requests[i].arrival_time <= now:
                    try:
                        admission.admit(requests[i], now)
                    except Overloaded as rejection:
                        metrics.record_shed(rejection.reason, [requests[i]])
                    i += 1
                metrics.sample_queue_depth(len(queue))
                if len(queue) == 0:
                    if i >= n:
                        break
                    gap = t0 + requests[i].arrival_time - clock.elapsed
                    if gap > 0:
                        with clock.phase("idle"):
                            clock.advance_idle(gap)
                    continue
                batch, expired = self.batcher.next_batch(queue, now)
                if expired:
                    metrics.record_shed("deadline", expired)
                if not batch:
                    continue
                if not self.breaker.allow(clock.elapsed - t0):
                    # Open circuit: fail fast at the dispatch point instead
                    # of hammering a model that keeps failing.
                    metrics.record_shed("circuit_open", batch)
                    continue
                serve(batch)
            delta = start.delta(clock)
            idle = clock.idle - idle0
            elapsed = delta.elapsed
            return metrics.summary(
                framework=self.inference.framework,
                model=self.inference.config.model,
                dataset=self.inference.dataset,
                n_requests=n,
                elapsed=elapsed,
                gpu_utilization=delta.gpu_busy / elapsed if elapsed > 0 else 0.0,
                busy_fraction=(elapsed - idle) / elapsed if elapsed > 0 else 0.0,
                phase_times=delta.phase_elapsed,
                circuit_opens=self.breaker.opens,
            )

    # ------------------------------------------------------------------
    def _run_batch(
        self,
        batch: List[InferenceRequest],
        metrics: ServerMetrics,
        clock,
        t0: float,
    ) -> None:
        """One attempt at ``batch``: collate, forward, record the responses."""
        dispatch = clock.elapsed - t0
        collated = self.inference.collate([r.sample for r in batch])
        logits = self.inference.forward(collated)
        completion = clock.elapsed - t0
        predictions = np.argmax(logits.data, axis=1)
        metrics.record_batch(
            [
                InferenceResponse(
                    request_id=r.request_id,
                    prediction=int(p),
                    arrival_time=r.arrival_time,
                    dispatch_time=dispatch,
                    completion_time=completion,
                    batch_size=len(batch),
                )
                for r, p in zip(batch, predictions)
            ]
        )

    def _backoff(self, delay: float) -> None:
        with self.device.clock.phase("backoff"):
            self.device.host(delay)
