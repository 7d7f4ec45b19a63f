"""End-to-end serving simulation: traces, batching, shedding, phases."""

import numpy as np
import pytest

from repro.datasets import enzymes
from repro.device import Device
from repro.models import graph_config
from repro.serve import (
    DynamicBatcher,
    InferenceModel,
    ServeSimulator,
    bursty_trace,
    poisson_trace,
)
from repro.serve.simulator import validate_arrivals


@pytest.fixture(scope="module")
def dataset():
    return enzymes(seed=0, num_graphs=24)


def inference_for(framework, dataset, seed=0):
    config = graph_config("gcn", in_dim=dataset.num_features, n_classes=dataset.num_classes)
    if framework == "pygx":
        from repro.pygx import build_model
    else:
        from repro.dglx import build_model
    return InferenceModel(framework, build_model(config, np.random.default_rng(seed)), config, "enzymes")


class TestTraces:
    def test_poisson_trace_shape_and_rate(self):
        trace = poisson_trace(2000, rate=100.0, rng=0)
        assert trace.shape == (2000,)
        assert np.all(np.diff(trace) >= 0)
        # mean inter-arrival ~ 1/rate
        assert np.mean(np.diff(trace)) == pytest.approx(0.01, rel=0.2)

    def test_poisson_trace_seed_reproducible(self):
        np.testing.assert_array_equal(
            poisson_trace(50, 10.0, rng=3), poisson_trace(50, 10.0, rng=3)
        )

    def test_bursty_trace_has_idle_gaps(self):
        trace = bursty_trace(60, burst_size=20, burst_rate=1000.0, idle_gap=1.0, rng=0)
        assert trace.shape == (60,)
        gaps = np.diff(trace)
        assert np.sum(gaps > 1.0) == 2  # two inter-burst gaps in three bursts
        assert np.all(gaps >= 0)

    def test_invalid_trace_parameters(self):
        with pytest.raises(ValueError):
            poisson_trace(0, 10.0)
        with pytest.raises(ValueError):
            poisson_trace(10, 0.0)
        with pytest.raises(ValueError):
            bursty_trace(10, burst_size=0, burst_rate=1.0, idle_gap=0.1)


class TestValidateArrivals:
    def test_returns_the_trace_as_float64(self):
        out = validate_arrivals([0, 1, 1, 2])
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [0.0, 1.0, 1.0, 2.0])

    @pytest.mark.parametrize(
        "trace, message",
        [
            ([], "arrival trace is empty"),
            ([0.1, float("nan"), 0.3], r"must be finite: arrival_times\[1\] = nan"),
            ([0.1, 0.2, float("inf")], r"must be finite: arrival_times\[2\] = inf"),
            ([float("-inf"), 0.2], r"must be finite: arrival_times\[0\] = -inf"),
            (
                [0.1, 0.5, 0.4, 0.3],
                r"must be non-decreasing: arrival_times\[2\] = 0.4 follows 0.5",
            ),
        ],
    )
    def test_names_the_first_offending_entry(self, trace, message):
        with pytest.raises(ValueError, match=message):
            validate_arrivals(trace)


class TestServeSimulator:
    @pytest.mark.parametrize("framework", ["pygx", "dglx"])
    def test_low_load_serves_everything(self, framework, dataset):
        simulator = ServeSimulator(inference_for(framework, dataset), queue_capacity=64)
        result = simulator.replay(dataset.graphs, poisson_trace(40, rate=50.0, rng=0))
        assert result.completed == 40
        assert result.shed == 0
        assert result.n_requests == 40
        assert result.framework == framework
        assert result.p50 > 0.0
        assert result.p50 <= result.p95 <= result.p99
        # low load means the server mostly waits
        assert result.busy_fraction < 1.0
        assert result.phase_times.get("idle", 0.0) > 0.0

    def test_serves_on_the_default_stream_only(self, dataset):
        device = Device()
        simulator = ServeSimulator(inference_for("pygx", dataset), device=device)
        simulator.replay(dataset.graphs, poisson_trace(20, rate=400.0, rng=7))
        assert device.stream_names() == {0: "default"}

    @pytest.mark.parametrize("framework", ["pygx", "dglx"])
    def test_gpu_busy_never_exceeds_elapsed(self, framework, dataset):
        device = Device()
        simulator = ServeSimulator(inference_for(framework, dataset), device=device)
        result = simulator.replay(dataset.graphs, poisson_trace(60, rate=400.0, rng=7))
        assert result.completed + result.shed + result.failed == result.n_requests
        assert 0.0 < device.clock.gpu_busy <= device.clock.elapsed

    def test_phase_breakdown_matches_training_phases(self, dataset):
        simulator = ServeSimulator(inference_for("pygx", dataset), queue_capacity=64)
        result = simulator.replay(dataset.graphs, poisson_trace(30, rate=200.0, rng=1))
        assert result.phase_times["data_loading"] > 0.0
        assert result.phase_times["forward"] > 0.0
        assert result.gpu_utilization > 0.0

    def test_dynamic_batching_beats_unbatched_under_load(self, dataset):
        inference = inference_for("pygx", dataset)
        trace = poisson_trace(300, rate=3000.0, rng=2)
        unbatched = ServeSimulator(
            inference, DynamicBatcher(max_batch_size=1), queue_capacity=64
        ).replay(dataset.graphs, trace)
        batched = ServeSimulator(
            inference, DynamicBatcher(max_batch_size=32), queue_capacity=64
        ).replay(dataset.graphs, trace)
        assert batched.throughput > unbatched.throughput
        assert batched.mean_batch_size > 1.0
        assert batched.p99 < unbatched.p99

    def test_overload_sheds_and_queue_stays_bounded(self, dataset):
        trace = bursty_trace(200, burst_size=100, burst_rate=50000.0, idle_gap=0.01, rng=3)
        simulator = ServeSimulator(
            inference_for("pygx", dataset),
            DynamicBatcher(max_batch_size=4),
            queue_capacity=16,
        )
        result = simulator.replay(dataset.graphs, trace)
        assert result.shed_by_reason.get("queue_full", 0) > 0
        assert result.max_queue_depth <= 16
        assert result.completed + result.shed == 200

    def test_deadline_expiry_shed_at_dispatch(self, dataset):
        # One lone arrival, then a burst far in the future: the first batch
        # is served, and by the time the burst queue drains some requests
        # have outlived a very tight deadline.
        simulator = ServeSimulator(
            inference_for("pygx", dataset),
            DynamicBatcher(max_batch_size=1),
            queue_capacity=256,
            deadline=0.002,
        )
        trace = np.concatenate([[0.0], np.full(50, 0.01)])
        result = simulator.replay(dataset.graphs, trace)
        assert result.shed_by_reason.get("deadline", 0) > 0
        assert result.completed + result.shed == 51

    def test_accounting_is_complete(self, dataset):
        trace = poisson_trace(100, rate=5000.0, rng=4)
        simulator = ServeSimulator(
            inference_for("pygx", dataset),
            DynamicBatcher(max_batch_size=8),
            queue_capacity=8,
        )
        result = simulator.replay(dataset.graphs, trace)
        assert result.completed + result.shed == result.n_requests
        assert result.completed == sum(
            size * count for size, count in result.batch_size_histogram.items()
        )

    def test_empty_or_unsorted_trace_rejected(self, dataset):
        simulator = ServeSimulator(inference_for("pygx", dataset))
        with pytest.raises(ValueError):
            simulator.replay(dataset.graphs, [])
        with pytest.raises(ValueError):
            simulator.replay(dataset.graphs, [1.0, 0.5])
        with pytest.raises(ValueError):
            simulator.replay([], [0.0])

    def test_responses_cycle_over_samples_deterministically(self, dataset):
        inference = inference_for("pygx", dataset)
        trace = poisson_trace(20, rate=100.0, rng=5)
        first = ServeSimulator(inference, queue_capacity=32).replay(dataset.graphs, trace)
        second = ServeSimulator(inference, queue_capacity=32).replay(dataset.graphs, trace)
        assert first.latency_percentiles == second.latency_percentiles
        assert first.throughput == pytest.approx(second.throughput)
