"""Inference serving layer: registry, dynamic batching, admission control.

The training side of the reproduction shows *why* batching matters (the
launch-bound regime of Figs. 1-2); this package applies the same economics
to the inference path the ROADMAP's production system needs: a
:class:`ModelRegistry` of trained checkpoints, a :class:`DynamicBatcher`
coalescing open-loop traffic under a node/edge budget, bounded queues with
typed :class:`Overloaded` load shedding, and :class:`ServerMetrics`
reporting p50/p95/p99 latency, throughput and shed counts off the simulated
clock.
"""

from repro.serve.batcher import DynamicBatcher
from repro.serve.metrics import (
    LATENCY_PERCENTILES,
    ServerMetrics,
    ServingResult,
)
from repro.serve.queue import AdmissionController, RequestQueue
from repro.serve.registry import InferenceModel, ModelRegistry
from repro.serve.request import InferenceRequest, InferenceResponse, Overloaded
from repro.serve.resilience import CircuitBreaker, RetryPolicy
from repro.serve.simulator import ServeSimulator, bursty_trace, poisson_trace

__all__ = [
    "ModelRegistry",
    "InferenceModel",
    "RequestQueue",
    "AdmissionController",
    "DynamicBatcher",
    "InferenceRequest",
    "InferenceResponse",
    "Overloaded",
    "ServerMetrics",
    "ServingResult",
    "LATENCY_PERCENTILES",
    "ServeSimulator",
    "poisson_trace",
    "bursty_trace",
    "RetryPolicy",
    "CircuitBreaker",
]
