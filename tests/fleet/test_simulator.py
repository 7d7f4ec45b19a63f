"""End-to-end fleet replays: routing, caching, quotas, chaos, autoscaling,
and the per-tenant no-silent-loss invariant."""

import json

import numpy as np
import pytest

from repro.datasets import enzymes
from repro.fleet import (
    Arrival,
    AutoscalerConfig,
    ChaosPlan,
    FleetSimulator,
    ResultCache,
    Tenant,
)
from repro.models import graph_config
from repro.serve import DynamicBatcher, InferenceModel, ServeSimulator


@pytest.fixture(scope="module")
def dataset():
    return enzymes(seed=0, num_graphs=24)


@pytest.fixture(scope="module")
def inference(dataset):
    from repro.pygx import build_model

    config = graph_config(
        "gcn", in_dim=dataset.num_features, n_classes=dataset.num_classes
    )
    return InferenceModel(
        "pygx", build_model(config, np.random.default_rng(0)), config, "enzymes"
    )


def _trace(n, gap=0.01, tenant=None, sample_idx=None, start=0.001):
    tenant = tenant or Tenant("t")
    return [
        Arrival(start + i * gap, tenant, sample_idx if sample_idx is not None else i)
        for i in range(n)
    ]


class TestReplayBasics:
    def test_low_load_completes_everything(self, dataset, inference):
        simulator = FleetSimulator(inference, n_replicas=2, seed=0)
        result = simulator.replay(dataset.graphs, _trace(30))
        assert result.completed == 30
        assert result.shed == 0 and result.failed == 0
        assert result.no_silent_loss
        assert result.policy == "p2c"
        assert result.initial_replicas == 2
        assert result.elapsed > 0.0
        assert result.goodput > 0.0
        assert 0.0 < result.p50 <= result.p99

    def test_both_replicas_share_the_work(self, dataset, inference):
        simulator = FleetSimulator(
            inference, n_replicas=2, policy="round_robin", seed=0
        )
        result = simulator.replay(dataset.graphs, _trace(30))
        served = {r.replica_id: r.requests_served for r in result.replicas}
        assert served[0] > 0 and served[1] > 0
        assert sum(served.values()) == 30

    def test_per_tenant_accounting(self, dataset, inference):
        gold, bronze = Tenant("g", tier="gold"), Tenant("b")
        arrivals = sorted(
            _trace(10, tenant=gold) + _trace(10, tenant=bronze, start=0.0015),
            key=lambda a: (a.time, a.tenant.name, a.sample_idx),
        )
        simulator = FleetSimulator(inference, n_replicas=2, seed=0)
        result = simulator.replay(dataset.graphs, arrivals)
        assert set(result.tenants) == {"g", "b"}
        assert result.tenants["g"].n_requests == 10
        assert result.tenants["g"].resolved == 10
        assert result.tenants["b"].resolved == 10

    def test_validation(self, dataset, inference):
        with pytest.raises(ValueError, match="n_replicas"):
            FleetSimulator(inference, n_replicas=0)
        simulator = FleetSimulator(inference, n_replicas=1)
        with pytest.raises(ValueError, match="sample"):
            simulator.replay([], _trace(3))
        with pytest.raises(ValueError, match="trace"):
            simulator.replay(dataset.graphs, [])
        backwards = list(reversed(_trace(3)))
        with pytest.raises(ValueError, match="non-decreasing"):
            simulator.replay(dataset.graphs, backwards)


#: Traces no replay loop can run: on a NaN arrival time both loops used to
#: spin forever (NaN compares False with everything, so the request is never
#: admitted and the clock never advances).
BAD_TRACES = {
    "empty": ([], "arrival trace is empty"),
    "nan": ([0.001, float("nan"), 0.003], r"must be finite: arrival_times\[1\] = nan"),
    "inf": ([0.001, 0.002, float("inf")], r"must be finite: arrival_times\[2\] = inf"),
    "decreasing": (
        [0.001, 0.003, 0.002],
        r"must be non-decreasing: arrival_times\[2\] = 0.002 follows 0.003",
    ),
}


@pytest.mark.parametrize("name", BAD_TRACES)
def test_both_simulators_reject_a_bad_trace_with_one_message(name, dataset, inference):
    times, message = BAD_TRACES[name]
    with pytest.raises(ValueError, match=message):
        ServeSimulator(inference).replay(dataset.graphs, times)
    arrivals = [Arrival(t, Tenant("t"), i) for i, t in enumerate(times)]
    with pytest.raises(ValueError, match=message):
        FleetSimulator(inference, n_replicas=1).replay(dataset.graphs, arrivals)


class TestCache:
    def test_repeated_content_hits_the_cache(self, dataset, inference):
        simulator = FleetSimulator(
            inference, n_replicas=1, cache=ResultCache(8), seed=0
        )
        # Same sample over and over, spaced out so the first completes
        # (and fills the cache) before the rest arrive.
        result = simulator.replay(dataset.graphs, _trace(10, gap=0.05, sample_idx=3))
        assert result.cache_hits > 0
        assert result.cache_hit_rate > 0.0
        assert result.completed == 10

    def test_cold_unique_content_never_hits(self, dataset, inference):
        simulator = FleetSimulator(
            inference, n_replicas=1, cache=ResultCache(8), seed=0
        )
        result = simulator.replay(dataset.graphs, _trace(10, gap=0.05))
        assert result.cache_hits == 0
        assert result.cache_misses == 10


class TestAdmissionControl:
    def test_quota_exhaustion_sheds_with_reason(self, dataset, inference):
        capped = Tenant("capped", quota=2)
        arrivals = [Arrival(0.001, capped, i) for i in range(12)]
        simulator = FleetSimulator(inference, n_replicas=1, seed=0)
        result = simulator.replay(dataset.graphs, arrivals)
        assert result.shed_by_reason.get("quota", 0) > 0
        assert result.no_silent_loss
        assert result.tenants["capped"].resolved == 12

    def test_overload_sheds_queue_full(self, dataset, inference):
        simulator = FleetSimulator(
            inference, n_replicas=1, queue_capacity=2, seed=0,
            batcher=DynamicBatcher(max_batch_size=2),
        )
        arrivals = [Arrival(0.001, Tenant("t"), i) for i in range(20)]
        result = simulator.replay(dataset.graphs, arrivals)
        assert result.shed_by_reason.get("queue_full", 0) > 0
        assert result.no_silent_loss


class TestDeterminism:
    def _run(self, dataset, inference, seed):
        simulator = FleetSimulator(inference, n_replicas=4, policy="p2c", seed=seed)
        result = simulator.replay(dataset.graphs, _trace(40, gap=0.0002))
        return simulator, result

    def test_seeded_replays_are_identical(self, dataset, inference):
        first_sim, first = self._run(dataset, inference, seed=7)
        second_sim, second = self._run(dataset, inference, seed=7)
        assert first_sim.policy.decisions == second_sim.policy.decisions
        assert (first.completed, first.shed, first.failed) == (
            second.completed, second.shed, second.failed
        )
        assert first.latency_percentiles == second.latency_percentiles
        assert first.elapsed == second.elapsed


class TestChaos:
    def test_replica_loss_is_never_silent(self, dataset, inference):
        chaos = ChaosPlan(seed=3, loss_times=(0.002, 0.004), downtime=0.01)
        simulator = FleetSimulator(inference, n_replicas=2, chaos=chaos, seed=0)
        result = simulator.replay(dataset.graphs, _trace(40, gap=0.0002))
        assert result.replica_losses == 2
        assert result.no_silent_loss
        assert result.completed > 0

    def test_lost_backlog_is_rerouted(self, dataset, inference):
        chaos = ChaosPlan(seed=0, loss_times=(0.002,), downtime=0.05)
        simulator = FleetSimulator(
            inference, n_replicas=2, chaos=chaos, policy="round_robin", seed=0
        )
        result = simulator.replay(dataset.graphs, _trace(40, gap=0.0002))
        assert result.reroutes > 0
        assert result.no_silent_loss


class TestAutoscaling:
    def test_burst_triggers_scale_up_with_visible_warmup(self, dataset, inference):
        config = AutoscalerConfig(
            min_replicas=1, max_replicas=4, interval=0.001,
            scale_up_queue_depth=3.0, cooldown=0.002,
        )
        simulator = FleetSimulator(inference, n_replicas=1, autoscaler=config, seed=0)
        simulator.device.profiler.enabled = True
        result = simulator.replay(dataset.graphs, _trace(60, gap=0.0001))
        assert result.scale_ups > 0
        assert result.peak_replicas > 1
        assert result.no_silent_loss
        warmups = [
            r for r in simulator.device.profiler.records if r.name == "replica_warmup"
        ]
        assert warmups
        assert all(r.duration > 0 for r in warmups)

    def test_warm_start_cost_follows_the_device_cost_model(self, dataset, inference):
        simulator = FleetSimulator(inference, n_replicas=1, seed=0)
        replica = simulator.replicas[0]
        warm = replica.warm_start_seconds(boot_overhead=2e-3)
        transfer = simulator.device.spec.transfer_time(
            4.0 * inference.model.num_parameters()
        )
        assert warm == pytest.approx(transfer + 2e-3)
        assert warm > 2e-3


class TestChromeTrace:
    def test_trace_has_one_track_per_replica(self, dataset, inference, tmp_path):
        simulator = FleetSimulator(inference, n_replicas=2, seed=0)
        simulator.device.profiler.enabled = True
        simulator.replay(dataset.graphs, _trace(20))
        path = tmp_path / "fleet_trace.json"
        simulator.write_trace(path)
        trace = json.loads(path.read_text())
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        }
        for expected in ("replica0", "replica1", "replica0.host"):
            assert any(name.startswith(f"{expected} (") for name in names), names
