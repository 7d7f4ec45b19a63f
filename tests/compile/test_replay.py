"""ExecutionPlan lowering and ReplaySession accounting on the device."""

import numpy as np
import pytest

from repro.compile import (
    ACTION_EAGER,
    ACTION_FUSE_HEAD,
    ACTION_FUSE_MEMBER,
    ACTION_SKIP,
    ReplaySession,
    build_plan,
    PassStats,
    capture,
    run_passes,
)
from repro.compile.passes import NodeDecision, dead_code_elimination, fuse_elementwise
from repro.device import Device, current_device, use_device
from repro.tensor import Tensor, ops


def _plan_for(fn, *passes):
    """Plan of one capture of ``fn``: the whole pipeline, or only ``passes`` in order."""
    _, ir = capture(fn)
    if passes:
        decisions, stats = [NodeDecision() for _ in ir.nodes], PassStats()
        for run in passes:
            run(ir, decisions, stats)
    else:
        decisions, stats = run_passes(ir)
    return build_plan(ir, decisions, stats), ir


class TestBuildPlan:
    def test_launch_counts_and_reduction(self):
        x = Tensor(np.ones((4, 8)))
        w = Tensor(np.ones((8, 8)), requires_grad=True)
        plan, ir = _plan_for(lambda: ops.relu(ops.matmul(x, w)))
        assert plan.eager_launches == 2
        assert plan.compiled_launches == 1  # matmul+relu fused
        assert plan.launch_reduction == pytest.approx(0.5)

    def test_group_named_after_members_and_closed_once(self):
        x = Tensor(np.ones((4, 8)))
        plan, _ = _plan_for(lambda: ops.relu(ops.exp(ops.matmul(x, x.T))))
        closing = [n for n in plan.nodes if n.closes_group]
        assert len(closing) == 1
        assert closing[-1].group_name.startswith("fused[")
        assert "matmul" in closing[-1].group_name

    def test_decision_count_mismatch_rejected(self):
        x = Tensor(np.ones(3))
        _, ir = capture(lambda: ops.exp(x))
        with pytest.raises(ValueError):
            build_plan(ir, [], run_passes(ir)[1])


class TestReplayAccounting:
    def test_skip_charges_nothing(self):
        x = Tensor(np.ones(16))

        def step():
            dead = ops.exp(x)  # unobserved
            return ops.log(x)

        plan, _ = _plan_for(step, dead_code_elimination)
        device = Device()
        with use_device(device):
            session = ReplaySession(plan)
            before = device.clock.elapsed
            with device.replaying(session):
                step()
            assert not session.failed
            assert session.launches_skipped == 1
            assert session.launches_issued == 1
        eager = Device()
        with use_device(eager):
            step()
        assert device.clock.elapsed < eager.clock.elapsed

    def test_fused_group_pays_one_launch_overhead(self):
        x = Tensor(np.ones(16))

        def step():
            return ops.relu(ops.exp(ops.log(x)))

        plan, _ = _plan_for(step, fuse_elementwise)
        assert plan.compiled_launches == 1
        compiled_dev = Device()
        with use_device(compiled_dev):
            with compiled_dev.replaying(ReplaySession(plan)):
                step()
        eager_dev = Device()
        with use_device(eager_dev):
            step()
        overhead = compiled_dev.spec.launch_overhead
        host = lambda d: d.clock.elapsed - d.clock.gpu_busy
        assert host(eager_dev) - host(compiled_dev) == pytest.approx(2 * overhead)

    def test_fused_group_emits_single_profiler_record(self):
        x = Tensor(np.ones(16))

        def step():
            return ops.relu(ops.exp(ops.log(x)))

        plan, _ = _plan_for(step, fuse_elementwise)
        device = Device()
        device.profiler.enabled = True
        with use_device(device):
            with device.replaying(ReplaySession(plan)):
                step()
        assert len(device.profiler.records) == 1
        record = device.profiler.records[0]
        assert record.name.startswith("fused[")
        assert record.duration > 0

    def test_replay_numerics_identical_to_eager(self):
        x = Tensor(np.linspace(0.1, 2.0, 32, dtype=np.float32))

        def step():
            return ops.relu(ops.exp(ops.log(x)))

        eager_out = step()
        plan, _ = _plan_for(step)
        device = current_device()
        with device.replaying(ReplaySession(plan)):
            replay_out = step()
        np.testing.assert_array_equal(eager_out.data, replay_out.data)


class TestGuards:
    def test_name_mismatch_fails_open_to_eager(self):
        x = Tensor(np.ones(8))
        plan, _ = _plan_for(lambda: ops.exp(x))
        device = Device()
        with use_device(device):
            session = ReplaySession(plan)
            with device.replaying(session):
                ops.log(x)  # diverges immediately
            assert session.failed
            assert session.failure.expected == "exp"
            assert session.failure.got == "log"
            # the divergent kernel was still charged (eagerly)
            assert device.clock.elapsed > 0

    def test_longer_stream_than_plan_fails(self):
        x = Tensor(np.ones(8))
        plan, _ = _plan_for(lambda: ops.exp(x))
        device = Device()
        with use_device(device):
            session = ReplaySession(plan)
            with device.replaying(session):
                ops.exp(x)
                ops.exp(x)  # one more than captured
            assert session.failed
            assert session.failure.got == "exp"

    def test_truncated_stream_fails_on_finish(self):
        x = Tensor(np.ones(8))
        plan, _ = _plan_for(lambda: (ops.exp(x), ops.log(x)))
        device = Device()
        with use_device(device):
            session = ReplaySession(plan)
            with device.replaying(session):
                ops.exp(x)  # stop early
            assert session.failed
            assert session.failure.got is None

    def test_open_group_emitted_on_failure(self):
        x = Tensor(np.ones(8))

        def step():
            return ops.relu(ops.exp(ops.log(x)))

        plan, _ = _plan_for(step, fuse_elementwise)
        device = Device()
        device.profiler.enabled = True
        with use_device(device):
            session = ReplaySession(plan)
            with device.replaying(session):
                ops.log(x)
                ops.exp(x)
                ops.sqrt(x)  # diverges inside the fused group
            assert session.failed
        fused = [r for r in device.profiler.records if r.name.startswith("fused")]
        assert len(fused) == 1  # partial group still accounted


class TestDeviceContexts:
    def test_no_nested_capture_or_replay(self):
        from repro.compile import Tracer

        device = Device()
        with device.capturing(Tracer()):
            with pytest.raises(RuntimeError):
                device.capturing(Tracer()).__enter__()
            with pytest.raises(RuntimeError):
                device.replaying(None).__enter__()

    def test_tracer_cleared_after_capture(self):
        from repro.compile import Tracer

        device = Device()
        with device.capturing(Tracer()):
            assert device.tracer is not None
        assert device.tracer is None
        assert not device.capturing_or_replaying
