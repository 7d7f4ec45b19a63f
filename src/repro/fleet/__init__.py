"""Multi-replica serving fleet on the simulated device.

``repro.serve`` models one inference server; production GNN serving runs
*fleets*: N replicas behind a router, shared by many tenants with
different SLAs, resized by an autoscaler, and losing members to chaos.
This package composes those pieces — routing policies (round-robin,
least-loaded, power-of-two-choices), SLA-tiered queues with per-tenant
admission quotas, an LRU result cache, a queue-depth/p99 autoscaler with
device-cost-model warm starts, and seeded replica-loss chaos — on the
same shared :class:`~repro.device.Device` clock the training benchmarks
use, one stream per replica so replica compute genuinely overlaps.

Everything is deterministic under a seed, and every request ends in an
explicit outcome per tenant (no silent loss), so fleet-level claims
(power-of-two-choices beats round-robin at high load; scale-up absorbs a
flash crowd) are reproducible, CI-gated measurements.
"""

from repro.fleet.autoscaler import Autoscaler, AutoscalerConfig
from repro.fleet.cache import ResultCache
from repro.fleet.chaos import ChaosPlan, ChaosSchedule
from repro.fleet.metrics import FleetMetrics, FleetResult, ReplicaSummary
from repro.fleet.replica import DOWN, UP, WARMING, PendingBatch, Replica
from repro.fleet.request import SLA_TIERS, FleetRequest, FleetResponse, Tenant
from repro.fleet.routing import (
    POLICY_NAMES,
    LeastLoaded,
    PowerOfTwoChoices,
    RoundRobin,
    RoutingPolicy,
    make_policy,
    routable,
)
from repro.fleet.simulator import FleetSimulator
from repro.fleet.tiers import TenantQuota
from repro.fleet.traffic import (
    Arrival,
    bursty_multitenant_trace,
    diurnal_trace,
    flash_crowd_trace,
    merge_traces,
    zipf_sample_indices,
)

__all__ = [
    "Arrival",
    "Autoscaler",
    "AutoscalerConfig",
    "ChaosPlan",
    "ChaosSchedule",
    "DOWN",
    "FleetMetrics",
    "FleetRequest",
    "FleetResponse",
    "FleetResult",
    "FleetSimulator",
    "LeastLoaded",
    "POLICY_NAMES",
    "PendingBatch",
    "PowerOfTwoChoices",
    "Replica",
    "ReplicaSummary",
    "ResultCache",
    "RoundRobin",
    "RoutingPolicy",
    "SLA_TIERS",
    "Tenant",
    "TenantQuota",
    "UP",
    "WARMING",
    "bursty_multitenant_trace",
    "diurnal_trace",
    "flash_crowd_trace",
    "make_policy",
    "merge_traces",
    "routable",
    "zipf_sample_indices",
]
