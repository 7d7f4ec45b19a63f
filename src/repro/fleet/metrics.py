"""Fleet-wide observability: per-tenant accounting over shared replicas.

:class:`FleetMetrics` *is* a :class:`~repro.serve.ServerMetrics` for the
fleet aggregate that also records every outcome into one ``ServerMetrics``
window per tenant, and :class:`FleetResult` *is* a
:class:`~repro.serve.ServingResult` whose ``tenants`` are the windows'
summaries.  So the no-silent-loss bookkeeping (``resolved_ids``) that made
single-server chaos testable extends to every tenant individually: after
a replay, each request must be resolved exactly once, ``completed + shed +
failed == n``, *per tenant*, whatever the chaos schedule did.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.fleet.request import FleetRequest, FleetResponse
from repro.serve.metrics import ServerMetrics, ServingResult


@dataclass
class ReplicaSummary:
    """One replica's service record over a replay."""

    replica_id: int
    batches_served: int
    requests_served: int
    losses: int
    busy: float
    circuit_opens: int


@dataclass(kw_only=True)
class FleetResult(ServingResult):
    """Summary of one fleet replay (policy x replicas x trace).

    The fleet-wide :class:`ServingResult` plus what only a fleet has.  Each
    of ``tenants`` is a ``ServingResult`` over the fleet's elapsed time and
    utilisation; queue depth, retries and splits are fleet-wide and read
    zero on a slice.
    """

    policy: str
    initial_replicas: int
    peak_replicas: int
    final_replicas: int
    replicas: List[ReplicaSummary]
    cache_hits: int
    cache_misses: int
    reroutes: int
    replica_losses: int
    scale_ups: int
    scale_downs: int
    #: Tenant name -> SLA tier, one entry per slice in ``tenants``.
    tiers: Dict[str, str]

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0


@dataclass
class FleetMetrics(ServerMetrics):
    """Accumulates fleet observations, fanned out per tenant."""

    #: Tenant name -> the window of that tenant's outcomes.
    windows: Dict[str, ServerMetrics] = field(default_factory=lambda: defaultdict(ServerMetrics))
    tiers: Dict[str, str] = field(default_factory=dict)
    arrivals: Counter = field(default_factory=Counter)
    reroutes: int = 0

    def record_arrival(self, request: FleetRequest) -> None:
        name = request.tenant_name
        self.tiers[name] = request.tenant.tier if request.tenant is not None else "bronze"
        self.arrivals[name] += 1

    def record_batch(self, responses: List[FleetResponse]) -> None:
        super().record_batch(responses)
        # A tenant's window sees its own share of each batch.
        for name in dict.fromkeys(r.tenant for r in responses):
            self.windows[name].record_batch([r for r in responses if r.tenant == name])

    def record_shed(self, reason: str, requests: Sequence[FleetRequest]) -> None:
        super().record_shed(reason, requests)
        for request in requests:
            self.windows[request.tenant_name].record_shed(reason, [request])

    def record_failure(self, reason: str, requests: Sequence[FleetRequest]) -> None:
        super().record_failure(reason, requests)
        for request in requests:
            self.windows[request.tenant_name].record_failure(reason, [request])

    def record_reroute(self, count: int = 1) -> None:
        self.reroutes += count

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
        **fleet,
    ) -> FleetResult:
        """The fleet-wide summary, its tenant slices, and ``fleet``'s fields."""
        run = dict(
            framework=framework, model=model, dataset=dataset, elapsed=elapsed,
            gpu_utilization=gpu_utilization, busy_fraction=busy_fraction,
            phase_times=phase_times,
        )
        result = super().summary(n_requests=n_requests, circuit_opens=circuit_opens, **run)
        result.tenants = {
            name: self.windows[name].summary(n_requests=self.arrivals[name], **run)
            for name in sorted(self.arrivals)
        }
        return FleetResult(**vars(result), tiers=dict(self.tiers), reroutes=self.reroutes, **fleet)


__all__ = [
    "FleetMetrics",
    "FleetResult",
    "ReplicaSummary",
]
