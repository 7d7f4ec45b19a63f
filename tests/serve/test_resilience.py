"""Serving under faults: retries, circuit breaking, OOM splitting, and the
no-silent-loss invariant (every request resolves to a response, a shed, or
an explicit failure)."""

import dataclasses

import numpy as np
import pytest

from repro.datasets import enzymes
from repro.device import Device, OutOfMemoryError
from repro.faults import FaultPlan, KernelFault
from repro.models import graph_config
from repro.serve import (
    CircuitBreaker,
    DynamicBatcher,
    InferenceModel,
    RetryPolicy,
    ServeSimulator,
    ServerMetrics,
    bursty_trace,
    poisson_trace,
)
from repro.serve.resilience import serve_with_recovery


@pytest.fixture(scope="module")
def dataset():
    return enzymes(seed=0, num_graphs=24)


def inference_for(framework, dataset, seed=0):
    config = graph_config("gcn", in_dim=dataset.num_features, n_classes=dataset.num_classes)
    if framework == "pygx":
        from repro.pygx import build_model
    else:
        from repro.dglx import build_model
    return InferenceModel(
        framework, build_model(config, np.random.default_rng(seed)), config, "enzymes"
    )


class TestRetryPolicy:
    def test_exponential_delays(self):
        policy = RetryPolicy(max_retries=3, backoff=0.01, multiplier=2.0)
        assert policy.delay(0) == pytest.approx(0.01)
        assert policy.delay(1) == pytest.approx(0.02)
        assert policy.delay(2) == pytest.approx(0.04)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=1.0)
        for _ in range(2):
            breaker.record_failure(now=0.0)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(now=0.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 1
        assert not breaker.allow(now=0.5)

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=1.0)
        breaker.record_failure(now=0.0)
        breaker.record_success()
        breaker.record_failure(now=0.0)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0)
        breaker.record_failure(now=0.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.allow(now=1.5)  # cooldown elapsed: one probe allowed
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0)
        breaker.record_failure(now=0.0)
        breaker.allow(now=1.5)
        breaker.record_failure(now=1.5)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 2
        assert not breaker.allow(now=2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0.0)


class TestBatchSplit:
    def test_split_halves_preserving_fifo(self):
        first, second = DynamicBatcher.split([1, 2, 3, 4, 5])
        assert first == [1, 2, 3]
        assert second == [4, 5]
        assert first + second == [1, 2, 3, 4, 5]

    def test_split_pair(self):
        assert DynamicBatcher.split([1, 2]) == ([1], [2])

    def test_split_requires_two(self):
        with pytest.raises(ValueError):
            DynamicBatcher.split([1])


class ScriptedServer:
    """The three callables of :func:`serve_with_recovery`, scripted.

    ``run`` raises an OOM for any batch larger than ``oom_above``, else a
    ``KernelFault`` while ``faults`` (one bool per remaining call) says so,
    else serves the batch.  Every call advances a fake clock by 1 s, every
    backoff by its delay, so breaker timestamps are checkable.
    """

    def __init__(self, faults=(), oom_above=None):
        self.faults = iter(faults)
        self.oom_above = oom_above
        self.clock = 0.0
        self.attempts = []  # request ids of every run() call, in order
        self.delays = []
        self.served = []
        self.failed = []  # (reason, ids) per fail() call

    def run(self, batch):
        self.attempts.append(list(batch))
        self.clock += 1.0
        if self.oom_above is not None and len(batch) > self.oom_above:
            raise OutOfMemoryError("scripted")
        if next(self.faults, False):
            raise KernelFault("scripted", len(self.attempts))
        self.served.extend(batch)

    def backoff(self, delay):
        self.delays.append(delay)
        self.clock += delay

    def fail(self, reason, batch):
        self.failed.append((reason, list(batch)))

    def serve(self, batch, max_retries=3, failure_threshold=5):
        metrics = ServerMetrics()
        breaker = CircuitBreaker(failure_threshold=failure_threshold, cooldown=100.0)
        serve_with_recovery(
            batch,
            run=self.run,
            backoff=self.backoff,
            fail=self.fail,
            metrics=metrics,
            retry_policy=RetryPolicy(max_retries=max_retries, backoff=0.25, multiplier=2.0),
            breaker=breaker,
            now=lambda: self.clock,
        )
        return metrics, breaker


ALWAYS = [True] * 99

#: name -> (script, serve kwargs, batch size), then what must come out:
#: attempts, backoff delays, served ids, fail() calls, retries, splits.
RECOVERY_TABLE = {
    "clean batch is one attempt": (
        ({}, {}, 3),
        ([[0, 1, 2]], [], [0, 1, 2], [], 0, 0),
    ),
    "two transient faults, then success": (
        ({"faults": [True, True]}, {}, 3),
        ([[0, 1, 2]] * 3, [0.25, 0.5], [0, 1, 2], [], 2, 0),
    ),
    "faults past max_retries fail the whole batch once": (
        ({"faults": ALWAYS}, {"max_retries": 2}, 2),
        ([[0, 1]] * 3, [0.25, 0.5], [], [("kernel_fault", [0, 1])], 2, 0),
    ),
    "max_retries=0 never backs off": (
        ({"faults": ALWAYS}, {"max_retries": 0}, 2),
        ([[0, 1]], [], [], [("kernel_fault", [0, 1])], 0, 0),
    ),
    "oom halves until it fits, FIFO kept, nothing dropped": (
        ({"oom_above": 2}, {}, 5),
        ([[0, 1, 2, 3, 4], [0, 1, 2], [0, 1], [2], [3, 4]], [], [0, 1, 2, 3, 4], [], 0, 2),
    ),
    "oom down to unsplittable singles fails each explicitly": (
        ({"oom_above": 0}, {}, 3),
        (
            [[0, 1, 2], [0, 1], [0], [1], [2]],
            [],
            [],
            [("oom", [0]), ("oom", [1]), ("oom", [2])],
            0,
            2,
        ),
    ),
    "a half that faults retries on its own": (
        ({"oom_above": 1, "faults": [True, False, False]}, {}, 2),
        ([[0, 1], [0], [0], [1]], [0.25], [0, 1], [], 1, 1),
    ),
}


class TestServeWithRecovery:
    @pytest.mark.parametrize("name", RECOVERY_TABLE)
    def test_table(self, name):
        (script, kwargs, size), expected = RECOVERY_TABLE[name]
        server = ScriptedServer(**script)
        metrics, _ = server.serve(list(range(size)), **kwargs)
        attempts, delays, served, failed, retries, splits = expected
        assert server.attempts == attempts
        assert server.delays == delays
        assert server.served == served
        assert server.failed == failed
        assert (metrics.retries, metrics.batch_splits) == (retries, splits)
        # Exactly one outcome per request id.
        outcomes = served + [i for _, ids in failed for i in ids]
        assert sorted(outcomes) == list(range(size))

    def test_success_and_failure_reach_the_breaker(self):
        server = ScriptedServer(faults=ALWAYS)
        _, breaker = server.serve([0], max_retries=1)
        assert breaker.consecutive_failures == 1
        _, breaker = ScriptedServer().serve([0])
        assert breaker.consecutive_failures == 0 and breaker.state == CircuitBreaker.CLOSED

    def test_breaker_opening_mid_sequence_loses_nothing(self):
        # Four unsplittable OOMs against a threshold of two: the breaker
        # opens after the second, while halves are still outstanding; they
        # are still driven to an explicit outcome, and the breaker records
        # when each streak completed on the caller's clock.
        server = ScriptedServer(oom_above=0)
        _, breaker = server.serve([0, 1, 2, 3], failure_threshold=2)
        assert [ids for _, ids in server.failed] == [[0], [1], [2], [3]]
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 2
        assert breaker.opened_at == server.clock == 7.0  # 3 splits + 4 singles


def _resolved_invariant(result):
    assert result.completed + result.shed + result.failed == result.n_requests
    assert result.resolved == result.n_requests


class TestServingUnderFaults:
    def _replay(self, dataset, plan, framework="pygx", n=200, rate=800.0, **kwargs):
        simulator = ServeSimulator(
            inference_for(framework, dataset),
            DynamicBatcher(max_batch_size=16, max_nodes=4096),
            queue_capacity=64,
            device=Device(),
            fault_plan=plan,
            **kwargs,
        )
        return simulator.replay(dataset.graphs, poisson_trace(n, rate=rate, rng=0))

    def test_fault_free_plan_changes_nothing(self, dataset):
        clean = self._replay(dataset, None)
        nulled = self._replay(dataset, FaultPlan(seed=0))
        assert dataclasses.asdict(clean) == dataclasses.asdict(nulled)

    def test_transient_faults_absorbed_by_retry(self, dataset):
        result = self._replay(
            dataset, FaultPlan(seed=1, kernel_fault_rate=0.005)
        )
        _resolved_invariant(result)
        assert result.retries > 0
        # Retries absorb most transients: nearly everything completes.
        assert result.completed >= 0.9 * result.n_requests

    def test_oom_splits_batches_and_serves_both_halves(self, dataset):
        result = self._replay(dataset, FaultPlan(seed=1, oom_rate=0.002))
        _resolved_invariant(result)
        assert result.batch_splits > 0
        assert result.completed > 0

    def test_mixed_faults_no_request_silently_lost(self, dataset):
        """The satellite invariant, under every fault kind at once plus an
        admission-control overload (queue_full + deadline sheds)."""
        plan = FaultPlan(
            seed=3, oom_rate=0.002, kernel_fault_rate=0.005, stall_rate=0.02
        )
        simulator = ServeSimulator(
            inference_for("pygx", dataset),
            DynamicBatcher(max_batch_size=8, max_nodes=1024),
            queue_capacity=16,
            deadline=0.05,
            device=Device(),
            fault_plan=plan,
        )
        trace = bursty_trace(300, burst_size=100, burst_rate=20000.0, idle_gap=0.05, rng=1)
        result = simulator.replay(dataset.graphs, trace)
        _resolved_invariant(result)
        # Overloaded *and* faulted, yet shedding stays bounded: admission
        # control sheds the overflow, not the whole trace.  (The fault-free
        # version of this over-capacity burst already sheds ~2/3.)
        assert 0 < result.shed_fraction < 0.8
        assert result.completed > 0

    def test_failures_are_explicit_not_dropped(self, dataset):
        """With retries disabled every kernel fault becomes an explicit
        failure, and the breaker starts shedding at the dispatch point."""
        result = self._replay(
            dataset,
            FaultPlan(seed=1, kernel_fault_rate=0.3),
            retry_policy=RetryPolicy(max_retries=0),
            breaker=CircuitBreaker(failure_threshold=2, cooldown=0.01),
        )
        _resolved_invariant(result)
        assert result.failed > 0
        assert result.failed_by_reason.get("kernel_fault", 0) == result.failed
        assert result.circuit_opens > 0
        assert result.shed_by_reason.get("circuit_open", 0) > 0

    def test_faulted_replay_is_deterministic(self, dataset):
        plan = FaultPlan(seed=5, oom_rate=0.02, kernel_fault_rate=0.02)
        a = self._replay(dataset, plan)
        b = self._replay(dataset, plan)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_goodput_degrades_gracefully_with_fault_rate(self, dataset):
        """More faults cost throughput, but service never collapses."""
        clean = self._replay(dataset, None)
        faulted = self._replay(
            dataset, FaultPlan(seed=1, oom_rate=0.002, kernel_fault_rate=0.005)
        )
        _resolved_invariant(faulted)
        assert faulted.goodput <= clean.goodput
        assert faulted.goodput > 0.5 * clean.goodput
