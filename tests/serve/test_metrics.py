"""Serving metrics: percentiles, histogram, throughput, shed accounting."""

from dataclasses import replace

import numpy as np
import pytest

from repro.fleet import FleetMetrics, FleetRequest, FleetResponse, Tenant
from repro.graph import GraphSample
from repro.serve import LATENCY_PERCENTILES, InferenceResponse, ServerMetrics

SAMPLE = GraphSample(
    edge_index=np.zeros((2, 1), dtype=np.int64), x=np.zeros((2, 3), dtype=np.float32), y=0
)
TENANT = Tenant("t")


def request(request_id):
    return FleetRequest(request_id=request_id, sample=SAMPLE, arrival_time=0.0, tenant=TENANT)


def response(request_id, arrival, dispatch, completion, batch_size=1):
    return InferenceResponse(
        request_id=request_id,
        prediction=0,
        arrival_time=arrival,
        dispatch_time=dispatch,
        completion_time=completion,
        batch_size=batch_size,
    )


class TestResponseProperties:
    def test_latency_decomposition(self):
        r = response(0, arrival=1.0, dispatch=1.5, completion=2.0)
        assert r.latency == pytest.approx(1.0)
        assert r.queue_delay == pytest.approx(0.5)


class TestServerMetrics:
    def test_percentiles_from_known_latencies(self):
        metrics = ServerMetrics()
        metrics.record_batch(
            [response(i, 0.0, 0.0, (i + 1) / 100.0) for i in range(100)]
        )
        pct = metrics.latency_percentiles()
        latencies = np.arange(1, 101) / 100.0
        for p in (50.0, 95.0, 99.0):
            assert pct[p] == pytest.approx(float(np.percentile(latencies, p)))

    def test_empty_metrics_are_zero(self):
        metrics = ServerMetrics()
        assert metrics.latency_percentiles() == {50.0: 0.0, 95.0: 0.0, 99.0: 0.0}
        summary = metrics.summary("pygx", "gcn", "enzymes", 0, 0.0, 0.0, 0.0, {})
        assert summary.completed == 0
        assert summary.throughput == 0.0
        assert summary.mean_batch_size == 0.0

    def test_batch_size_histogram_and_mean(self):
        metrics = ServerMetrics()
        metrics.record_batch([response(0, 0, 0, 1), response(1, 0, 0, 1)])
        metrics.record_batch([response(2, 0, 0, 2)])
        metrics.record_batch([response(3, 0, 0, 3), response(4, 0, 0, 3)])
        summary = metrics.summary("pygx", "gcn", "enzymes", 5, 3.0, 0.0, 1.0, {})
        assert summary.batch_size_histogram == {2: 2, 1: 1}
        assert summary.mean_batch_size == pytest.approx((2 + 1 + 2) / 3)

    def test_shed_accounting_by_reason(self):
        metrics = ServerMetrics()
        metrics.record_shed("queue_full", [request(0)])
        metrics.record_shed("queue_full", [request(1)])
        metrics.record_shed("deadline", [request(2), request(3), request(4)])
        assert metrics.shed == 5
        assert metrics.resolved_ids == {0, 1, 2, 3, 4}
        summary = metrics.summary("pygx", "gcn", "enzymes", 10, 1.0, 0.0, 1.0, {})
        assert summary.shed_by_reason == {"queue_full": 2, "deadline": 3}
        assert (summary.shed, summary.n_requests) == (5, 10)

    def test_throughput_is_completed_per_elapsed(self):
        metrics = ServerMetrics()
        metrics.record_batch([response(i, 0, 0, 1) for i in range(6)])
        summary = metrics.summary("pygx", "gcn", "enzymes", 6, 2.0, 0.0, 1.0, {})
        assert summary.throughput == pytest.approx(3.0)

    def test_queue_depth_samples(self):
        metrics = ServerMetrics()
        for depth in (0, 3, 7, 2):
            metrics.sample_queue_depth(depth)
        summary = metrics.summary("pygx", "gcn", "enzymes", 0, 1.0, 0.0, 1.0, {})
        assert summary.max_queue_depth == 7
        assert summary.mean_queue_depth == pytest.approx(3.0)


# ----------------------------------------------------------------------
# One property table over the one result type: the same ten requests (8
# completed, 1 shed, 1 failed) summarised by the single server, by the
# fleet, and as the fleet's slice for their tenant.
# ----------------------------------------------------------------------
LATENCIES = [0.01 * (i + 1) for i in range(8)]
FLEET_FIELDS = dict(
    policy="p2c", initial_replicas=1, peak_replicas=1, final_replicas=1, replicas=[],
    cache_hits=0, cache_misses=0, replica_losses=0, scale_ups=0, scale_downs=0,
)


def _summarise(metrics, elapsed, **fleet):
    metrics.record_batch(
        [
            FleetResponse(
                request_id=i, prediction=0, arrival_time=0.0, dispatch_time=0.0,
                completion_time=latency, batch_size=8, tenant=TENANT.name,
            )
            for i, latency in enumerate(LATENCIES)
        ]
    )
    metrics.record_shed("queue_full", [request(8)])
    metrics.record_failure("oom", [request(9)])
    return metrics.summary("pygx", "gcn", "enzymes", 10, elapsed, 0.0, 1.0, {}, **fleet)


def _fleet(elapsed):
    metrics = FleetMetrics()
    for i in range(10):
        metrics.record_arrival(request(i))
    return _summarise(metrics, elapsed, **FLEET_FIELDS)


RESULTS = {
    "serve": lambda elapsed: _summarise(ServerMetrics(), elapsed),
    "fleet": _fleet,
    "tenant": lambda elapsed: _fleet(elapsed).tenants[TENANT.name],
}


@pytest.mark.parametrize("build", RESULTS.values(), ids=list(RESULTS))
class TestResultProperties:
    def test_resolved(self, build):
        result = build(2.0)
        assert (result.completed, result.shed, result.failed) == (8, 1, 1)
        assert result.resolved == 10

    def test_goodput_is_completed_per_elapsed(self, build):
        assert build(2.0).goodput == pytest.approx(4.0)

    def test_goodput_with_zero_elapsed(self, build):
        assert build(0.0).goodput == 0.0

    def test_p_properties_match_percentile_dict(self, build):
        result = build(2.0)
        assert [result.p50, result.p95, result.p99] == [
            result.latency_percentiles[p] for p in LATENCY_PERCENTILES
        ]
        assert result.p50 == pytest.approx(float(np.percentile(LATENCIES, 50.0)))

    def test_no_silent_loss_requires_every_request_resolved(self, build):
        result = build(2.0)
        assert result.no_silent_loss
        assert not replace(result, completed=7).no_silent_loss
        assert not replace(result, n_requests=11).no_silent_loss
