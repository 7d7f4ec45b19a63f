"""Fleet metrics: per-tenant fan-out and the no-silent-loss invariant."""

from dataclasses import replace

import numpy as np

from repro.fleet import FleetMetrics, FleetRequest, FleetResponse, Tenant
from repro.graph import GraphSample

GOLD = Tenant("acme", tier="gold")
BRONZE = Tenant("hooli", tier="bronze")


def _request(request_id, tenant):
    sample = GraphSample(
        edge_index=np.zeros((2, 1), dtype=np.int64),
        x=np.zeros((2, 3), dtype=np.float32),
        y=0,
    )
    return FleetRequest(
        request_id=request_id, sample=sample, arrival_time=0.0, tenant=tenant
    )


def _response(request_id, tenant, latency=0.01):
    return FleetResponse(
        request_id=request_id, prediction=0, arrival_time=0.0,
        dispatch_time=0.0, completion_time=latency, batch_size=1,
        tenant=tenant.name, replica=0,
    )


def _summary(metrics, cache_hits=0, cache_misses=0):
    return metrics.summary(
        "pygx", "gcn", "enzymes", sum(metrics.arrivals.values()), 2.0, 0.5, 0.5, {},
        policy="p2c", initial_replicas=2, peak_replicas=2, final_replicas=2,
        replicas=[], cache_hits=cache_hits, cache_misses=cache_misses,
        replica_losses=0, scale_ups=0, scale_downs=0,
    )


class TestFleetMetrics:
    def test_responses_fan_out_per_tenant(self):
        metrics = FleetMetrics()
        for i, tenant in enumerate([GOLD, GOLD, BRONZE]):
            metrics.record_arrival(_request(i, tenant))
        metrics.record_batch(
            [_response(0, GOLD), _response(1, GOLD), _response(2, BRONZE)]
        )
        result = _summary(metrics)
        assert result.tenants["acme"].completed == 2
        assert result.tenants["hooli"].completed == 1
        assert result.tiers == {"acme": "gold", "hooli": "bronze"}
        assert result.completed == 3
        # A tenant's window sees its own share of each batch.
        assert result.batch_size_histogram == {3: 1}
        assert result.tenants["acme"].batch_size_histogram == {2: 1}

    def test_shed_and_failed_fan_out_with_reasons(self):
        metrics = FleetMetrics()
        metrics.record_arrival(_request(0, GOLD))
        metrics.record_arrival(_request(1, BRONZE))
        metrics.record_shed("quota", [_request(0, GOLD)])
        metrics.record_failure("replica_lost", [_request(1, BRONZE)])
        tenants = _summary(metrics).tenants
        assert tenants["acme"].shed_by_reason == {"quota": 1}
        assert tenants["hooli"].failed_by_reason == {"replica_lost": 1}
        assert tenants["acme"].resolved == 1
        assert tenants["hooli"].resolved == 1

    def test_summaries_count_arrivals_per_tenant(self):
        metrics = FleetMetrics()
        for i in range(3):
            metrics.record_arrival(_request(i, GOLD))
        assert _summary(metrics).tenants["acme"].n_requests == 3

    def test_queue_depth_retries_and_splits_are_fleet_wide(self):
        metrics = FleetMetrics()
        metrics.record_arrival(_request(0, GOLD))
        metrics.sample_queue_depth(5)
        metrics.record_retry()
        metrics.record_split()
        result = _summary(metrics)
        assert (result.max_queue_depth, result.retries, result.batch_splits) == (5, 1, 1)
        slice_ = result.tenants["acme"]
        assert (slice_.max_queue_depth, slice_.retries, slice_.batch_splits) == (0, 0, 0)

    def test_reroute_counter(self):
        metrics = FleetMetrics()
        metrics.record_reroute()
        metrics.record_reroute(2)
        assert metrics.reroutes == 3
        assert _summary(metrics).reroutes == 3

    def test_cache_hit_rate(self):
        metrics = FleetMetrics()
        assert _summary(metrics, cache_hits=3, cache_misses=7).cache_hit_rate == 0.3
        assert _summary(metrics).cache_hit_rate == 0.0


class TestNoSilentLoss:
    def test_a_request_resolved_twice_is_not_an_answer_for_another(self):
        # Request 7 completes and then also fails; request 8 is never
        # resolved.  completed + shed + failed == n still balances.
        metrics = FleetMetrics()
        metrics.record_arrival(_request(7, GOLD))
        metrics.record_arrival(_request(8, GOLD))
        metrics.record_batch([_response(7, GOLD)])
        metrics.record_failure("oom", [_request(7, GOLD)])
        result = _summary(metrics)
        assert result.resolved == result.n_requests == 2
        assert not result.no_silent_loss
        assert not result.tenants["acme"].no_silent_loss

    def test_requires_every_tenant(self):
        metrics = FleetMetrics()
        for i, tenant in enumerate([GOLD, BRONZE]):
            metrics.record_arrival(_request(i, tenant))
        metrics.record_batch([_response(0, GOLD), _response(1, BRONZE)])
        result = _summary(metrics)
        assert result.no_silent_loss
        result.tenants["hooli"] = replace(result.tenants["hooli"], completed=0)
        assert not result.no_silent_loss
