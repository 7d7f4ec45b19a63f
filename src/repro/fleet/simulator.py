"""Discrete-event replay of a multi-tenant trace over a replica fleet.

The fleet generalises :class:`~repro.serve.ServeSimulator` from one server
to N: every replica executes forwards on its own stream of the *shared*
simulated device (the per-replica-stream construction ``repro.dist`` uses
for DDP), so replica compute overlaps while host-side collation and
dispatch serialise on the shared frontend clock — the realistic regime
where a fleet's frontend is itself a bottleneck under burst.

One frontend event loop drives everything in simulated-time order:

1. retire in-flight batches whose stream completion events have passed
   (responses recorded per tenant, result cache filled, quotas released);
2. apply due chaos (a replica loss re-routes its backlog and retries its
   in-flight work, bounded, then fails *explicitly* — never silently);
3. bring warming / recovering replicas up;
4. admit due arrivals: tenant quota -> result cache -> routing policy ->
   the chosen replica's SLA-tiered queue (typed sheds at each gate);
5. tick the autoscaler (warm-start cost charged via the device cost
   model before a new replica becomes routable);
6. dispatch one dynamic batch per free replica;
7. fast-forward the clock to the next event (waiting on in-flight work
   counts as busy; true quiet periods as idle).

The per-tenant no-silent-loss invariant holds by construction: every
admitted-or-rejected request ends in exactly one of *response*, *shed*
or *explicit failure*, accounted both fleet-wide and per tenant.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import List, Optional, Sequence, Set, Union

import numpy as np

from repro.device import Device, use_device
from repro.device.timeline import write_chrome_trace
from repro.fleet.autoscaler import Autoscaler, AutoscalerConfig
from repro.fleet.cache import ResultCache
from repro.fleet.chaos import ChaosPlan, ChaosSchedule
from repro.fleet.metrics import FleetMetrics, FleetResult, ReplicaSummary
from repro.fleet.replica import DOWN, WARMING, PendingBatch, Replica
from repro.fleet.request import FleetRequest, FleetResponse
from repro.fleet.routing import RoutingPolicy, make_policy, routable
from repro.fleet.tiers import TenantQuota
from repro.fleet.traffic import Arrival
from repro.graph import GraphSample
from repro.serve.batcher import DynamicBatcher
from repro.serve.request import Overloaded
from repro.serve.resilience import RetryPolicy, serve_with_recovery
from repro.serve.simulator import validate_arrivals

_NEVER = float("inf")


class FleetSimulator:
    """N serving replicas behind a router, one shared simulated device."""

    def __init__(
        self,
        inference,
        n_replicas: int = 2,
        policy: Union[str, RoutingPolicy] = "p2c",
        batcher: Optional[DynamicBatcher] = None,
        queue_capacity: int = 64,
        cache: Optional[ResultCache] = None,
        autoscaler: Optional[AutoscalerConfig] = None,
        chaos: Optional[ChaosPlan] = None,
        device: Optional[Device] = None,
        retry_policy: Optional[RetryPolicy] = None,
        seed: int = 0,
        cache_lookup_seconds: float = 2e-6,
        route_seconds: float = 5e-6,
    ) -> None:
        if n_replicas <= 0:
            raise ValueError("n_replicas must be positive")
        self.inference = inference
        self.device = device or Device()
        self.policy = policy if isinstance(policy, RoutingPolicy) else make_policy(policy, seed)
        self.batcher = batcher or DynamicBatcher()
        self.queue_capacity = queue_capacity
        self.cache = cache
        self.autoscaler_config = autoscaler
        self.chaos = chaos
        self.retry_policy = retry_policy or RetryPolicy()
        self.cache_lookup_seconds = cache_lookup_seconds
        #: Frontend cost of routing one request (quota + policy + enqueue)
        #: — the only per-request work that stays on the shared clock.
        self.route_seconds = route_seconds
        self.replicas: List[Replica] = [
            Replica(i, inference, self.device, queue_capacity)
            for i in range(n_replicas)
        ]
        self._initial_replicas = n_replicas

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def replay(
        self, samples: Sequence[GraphSample], arrivals: Sequence[Arrival]
    ) -> FleetResult:
        if not samples:
            raise ValueError("need at least one graph sample to serve")
        validate_arrivals([a.time for a in arrivals])

        requests = [
            FleetRequest(
                request_id=i,
                sample=samples[a.sample_idx % len(samples)],
                arrival_time=float(a.time),
                deadline=a.tenant.deadline if a.tenant is not None else None,
                tenant=a.tenant,
                sample_idx=a.sample_idx,
            )
            for i, a in enumerate(arrivals)
        ]

        metrics = FleetMetrics()
        quota = TenantQuota()
        scaler = (
            Autoscaler(self.autoscaler_config)
            if self.autoscaler_config is not None
            else None
        )
        schedule: Optional[ChaosSchedule] = (
            self.chaos.start() if self.chaos is not None else None
        )
        max_dispatches = self.chaos.max_dispatches if self.chaos is not None else 3
        retired: Set[int] = set()
        peak = len([r for r in self.replicas if r.state != DOWN])

        fault_plan = self.chaos.fault_plan if self.chaos is not None else None
        injecting = (
            self.device.injecting(fault_plan)
            if fault_plan is not None
            else nullcontext()
        )
        with use_device(self.device), injecting:
            clock = self.device.clock
            start = clock.snapshot()
            t0 = clock.elapsed
            idle0 = clock.idle
            n = len(requests)
            i = 0  # next arrival not yet admitted
            while True:
                now = clock.elapsed - t0

                # 1. retire finished batches (stream events that passed).
                for replica in self.replicas:
                    pending = replica.inflight
                    if pending is not None and pending.done_at <= now:
                        self._retire(replica, pending, metrics, quota)

                # 2. due chaos losses.
                if schedule is not None:
                    while schedule.pop_due(now) is not None:
                        self._lose_replica(schedule, metrics, quota, now, max_dispatches)

                # 3. warming / recovering replicas whose ready time passed.
                for replica in self.replicas:
                    if replica.id in retired:
                        continue
                    if replica.state in (WARMING, DOWN) and replica.ready_at <= now:
                        if replica.state == DOWN and replica.ready_at == 0.0:
                            continue  # lost before ever given a recovery time
                        replica.come_up()

                # 4. admit due arrivals.
                while i < n and requests[i].arrival_time <= now:
                    self._admit(requests[i], metrics, quota, now)
                    i += 1
                metrics.sample_queue_depth(sum(len(r.queue) for r in self.replicas))

                # 5. autoscaler tick.
                if scaler is not None and now >= scaler.next_eval:
                    decision = scaler.decide(now, self.replicas)
                    if decision > 0:
                        self._scale_up(scaler, retired, now)
                    elif decision < 0:
                        victim = scaler.pick_scale_down(self.replicas)
                        if victim is not None:
                            victim.state = DOWN
                            victim.ready_at = _NEVER
                            retired.add(victim.id)

                peak = max(peak, self._population())

                # 6. dispatch per free replica until it has work in flight
                # or nothing queued (an open breaker sheds straight through,
                # so its queue never strands the event loop).
                for replica in self.replicas:
                    while replica.free and len(replica.queue) > 0:
                        self._dispatch(replica, metrics, quota, t0)

                # 7. advance to the next event (or stop).
                done = (
                    i >= n
                    and all(len(r.queue) == 0 for r in self.replicas)
                    and all(r.inflight is None for r in self.replicas)
                )
                if done:
                    break
                next_time = self._next_event_time(i, n, requests, schedule, scaler, retired)
                if next_time == _NEVER:
                    # No event will ever free capacity for what is queued
                    # (every replica gone, nothing warming, no chaos
                    # recovery, no autoscaler): fail the backlog explicitly.
                    for replica in self.replicas:
                        stranded = replica.queue.drain()
                        if stranded:
                            metrics.record_failure("no_capacity", stranded)
                            for request in stranded:
                                quota.release(request.tenant)
                    break
                gap = next_time - now
                if gap > 0:
                    if any(r.inflight is not None for r in self.replicas):
                        clock.advance_wait(gap)
                    else:
                        with clock.phase("idle"):
                            clock.advance_idle(gap)

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
                circuit_opens=sum(r.breaker.opens for r in self.replicas),
                policy=self.policy.name,
                initial_replicas=self._initial_replicas,
                peak_replicas=peak,
                final_replicas=self._population(),
                replicas=[
                    ReplicaSummary(
                        replica_id=r.id,
                        batches_served=r.batches_served,
                        requests_served=r.requests_served,
                        losses=r.losses,
                        busy=r.stream.busy,
                        circuit_opens=r.breaker.opens,
                    )
                    for r in self.replicas
                ],
                cache_hits=self.cache.hits if self.cache is not None else 0,
                cache_misses=self.cache.misses if self.cache is not None else 0,
                replica_losses=sum(r.losses for r in self.replicas),
                scale_ups=scaler.scale_ups if scaler is not None else 0,
                scale_downs=scaler.scale_downs if scaler is not None else 0,
            )

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _population(self) -> int:
        return len([r for r in self.replicas if r.state != DOWN])

    def _admit(
        self,
        request: FleetRequest,
        metrics: FleetMetrics,
        quota: TenantQuota,
        now: float,
    ) -> None:
        metrics.record_arrival(request)
        self.device.host(self.route_seconds)
        if self.cache is not None:
            self.device.host(self.cache_lookup_seconds)
            hit = self.cache.get(request.sample_idx)
            if hit is not None:
                # A hit counts as a batch of one in ``mean_batch_size``.
                metrics.record_batch(
                    [
                        FleetResponse(
                            request_id=request.request_id,
                            prediction=hit,
                            arrival_time=request.arrival_time,
                            dispatch_time=now,
                            completion_time=now,
                            batch_size=1,
                            tenant=request.tenant_name,
                            replica=-1,
                            cached=True,
                        )
                    ]
                )
                return
        if not quota.try_acquire(request.tenant):
            metrics.record_shed("quota", [request])
            return
        candidates = routable(self.replicas, now)
        if not candidates:
            quota.release(request.tenant)
            metrics.record_shed("no_capacity", [request])
            return
        replica = self.policy.select(request, candidates)
        try:
            replica.queue.push(request)
        except Overloaded:
            quota.release(request.tenant)
            metrics.record_shed("queue_full", [request])

    def _dispatch(
        self,
        replica: Replica,
        metrics: FleetMetrics,
        quota: TenantQuota,
        t0: float,
    ) -> None:
        clock = self.device.clock
        now = clock.elapsed - t0
        batch, expired = self.batcher.next_batch(replica.queue, now)
        if expired:
            metrics.record_shed("deadline", expired)
            for request in expired:
                quota.release(request.tenant)
        if not batch:
            return
        if not replica.breaker.allow(now):
            metrics.record_shed("circuit_open", batch)
            for request in batch:
                quota.release(request.tenant)
            return
        pending = PendingBatch(dispatch_time=now)
        for request in batch:
            request.dispatches += 1

        def fail(reason: str, failed: List[FleetRequest]) -> None:
            metrics.record_failure(reason, failed)
            for request in failed:
                quota.release(request.tenant)

        serve_with_recovery(
            batch,
            run=lambda part: self._run_batch(replica, part, pending, t0),
            # Backoff burns the replica's host, not the frontend's.
            backoff=replica.host_stream.enqueue,
            fail=fail,
            metrics=metrics,
            retry_policy=self.retry_policy,
            breaker=replica.breaker,
            now=lambda: clock.elapsed - t0,
        )
        if pending.completions:
            replica.inflight = pending

    def _run_batch(
        self,
        replica: Replica,
        batch: List[FleetRequest],
        pending: PendingBatch,
        t0: float,
    ) -> None:
        """One attempt at a (sub-)batch: enqueue its kernels, join ``pending``.

        The replica is its own machine: collation and kernel launches run
        on its host timeline (offload), kernels on its compute stream —
        both overlap across replicas; only the dispatch call serialises on
        the frontend clock.  Completion is read off the replica's stream.
        """
        with self.device.offload(replica.host_stream):
            collated = self.inference.collate([r.sample for r in batch])
            with self.device.on(replica.stream):
                logits = self.inference.forward(collated)
        completion = replica.stream.record().timestamp - t0
        predictions = np.argmax(logits.data, axis=1)
        pending.completions.extend(
            (request, int(p), completion) for request, p in zip(batch, predictions)
        )

    def _retire(
        self,
        replica: Replica,
        pending: PendingBatch,
        metrics: FleetMetrics,
        quota: TenantQuota,
    ) -> None:
        responses = [
            FleetResponse(
                request_id=request.request_id,
                prediction=prediction,
                arrival_time=request.arrival_time,
                dispatch_time=pending.dispatch_time,
                completion_time=completion,
                batch_size=len(pending.completions),
                tenant=request.tenant_name,
                replica=replica.id,
            )
            for request, prediction, completion in pending.completions
        ]
        metrics.record_batch(responses)
        for request, prediction, _ in pending.completions:
            if self.cache is not None:
                self.cache.put(request.sample_idx, prediction)
            quota.release(request.tenant)
        replica.batches_served += 1
        replica.requests_served += len(pending.completions)
        replica.inflight = None

    def _lose_replica(
        self,
        schedule: ChaosSchedule,
        metrics: FleetMetrics,
        quota: TenantQuota,
        now: float,
        max_dispatches: int,
    ) -> None:
        up = [r for r in self.replicas if r.is_up]
        victim = schedule.pick_victim(up)
        if victim is None:
            return
        pending = victim.inflight
        victim.inflight = None
        backlog = victim.go_down(self.device.clock.elapsed)
        victim.ready_at = now + schedule.plan.downtime

        if pending is not None:
            # Sub-batches that finished on the device before the crash were
            # delivered; the rest died with the replica and retry elsewhere.
            delivered = [c for c in pending.completions if c[2] <= now]
            lost = [c for c in pending.completions if c[2] > now]
            if delivered:
                survivor = PendingBatch(pending.dispatch_time, delivered)
                self._retire(victim, survivor, metrics, quota)
                victim.inflight = None
            for request, _, _ in lost:
                if request.dispatches >= max_dispatches:
                    metrics.record_failure("replica_lost", [request])
                    quota.release(request.tenant)
                else:
                    self._reroute(request, metrics, quota, now)
        for request in backlog:
            self._reroute(request, metrics, quota, now)

    def _reroute(
        self,
        request: FleetRequest,
        metrics: FleetMetrics,
        quota: TenantQuota,
        now: float,
    ) -> None:
        """Re-home an already-admitted request after its replica died."""
        candidates = routable(self.replicas, now)
        if not candidates:
            metrics.record_failure("replica_lost", [request])
            quota.release(request.tenant)
            return
        replica = self.policy.select(request, candidates)
        try:
            replica.queue.push(request)
        except Overloaded:
            metrics.record_failure("replica_lost", [request])
            quota.release(request.tenant)
            return
        metrics.record_reroute()

    def _scale_up(self, scaler: Autoscaler, retired: Set[int], now: float) -> None:
        """Add capacity: revive a retired replica or build a fresh one."""
        revivable = sorted(retired)
        if revivable:
            replica = self.replicas[revivable[0]]
            retired.discard(replica.id)
        else:
            replica = Replica(
                len(self.replicas),
                self.inference,
                self.device,
                self.queue_capacity,
                state=DOWN,
            )
            self.replicas.append(replica)
        replica.begin_warmup(now, scaler.config.boot_overhead)

    # ------------------------------------------------------------------
    def _next_event_time(
        self,
        i: int,
        n: int,
        requests: List[FleetRequest],
        schedule: Optional[ChaosSchedule],
        scaler: Optional[Autoscaler],
        retired: Set[int],
    ) -> float:
        candidates: List[float] = []
        if i < n:
            candidates.append(requests[i].arrival_time)
        for replica in self.replicas:
            if replica.inflight is not None:
                candidates.append(replica.inflight.done_at)
            if replica.id in retired:
                continue
            if replica.state == WARMING:
                candidates.append(replica.ready_at)
            if replica.state == DOWN and replica.ready_at not in (0.0, _NEVER):
                candidates.append(replica.ready_at)
        if schedule is not None and schedule.next_loss is not None:
            candidates.append(schedule.next_loss)
        if scaler is not None and candidates:
            # The control loop only matters while other events remain —
            # without this guard the fleet would tick forever after the
            # trace drains.
            candidates.append(scaler.next_eval)
        return min(candidates) if candidates else _NEVER

    # ------------------------------------------------------------------
    def write_trace(self, path) -> None:
        """Chrome-trace of the replay: one track per replica stream."""
        write_chrome_trace(
            self.device.profiler.records, path, stream_names=self.device.stream_names()
        )


__all__ = ["FleetSimulator"]
