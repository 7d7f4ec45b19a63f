"""FaultPlan / FaultInjector: validation, determinism, stream independence."""

import numpy as np
import pytest

from repro.device import Device, OutOfMemoryError
from repro.faults import FaultError, FaultPlan, KernelFault


class TestFaultPlanValidation:
    @pytest.mark.parametrize("field", ["oom_rate", "kernel_fault_rate", "stall_rate"])
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_rates_must_be_probabilities(self, field, value):
        with pytest.raises(ValueError, match=field):
            FaultPlan(**{field: value})

    def test_negative_stall_seconds_rejected(self):
        with pytest.raises(ValueError, match="stall_seconds"):
            FaultPlan(stall_seconds=-1.0)

    def test_kernel_fault_is_a_fault_error(self):
        err = KernelFault("spmm", 7)
        assert isinstance(err, FaultError)
        assert err.kernel == "spmm"
        assert err.index == 7
        assert "spmm" in str(err)


def _launch_decisions(plan, n):
    """Run ``n`` launches through a fresh injector; True = fault injected."""
    injector = plan.start()
    decisions = [injector.on_launch("k")[1] is not None for _ in range(n)]
    return decisions, injector


def _alloc_decisions(injector, device, n):
    decisions = []
    for _ in range(n):
        try:
            injector.on_alloc(device.memory, 1024)
            decisions.append(False)
        except OutOfMemoryError:
            decisions.append(True)
    return decisions


class TestDeterminism:
    def test_same_plan_same_decisions(self):
        plan = FaultPlan(seed=7, kernel_fault_rate=0.3)
        a, _ = _launch_decisions(plan, 200)
        b, _ = _launch_decisions(plan, 200)
        assert a == b
        assert any(a) and not all(a)

    def test_different_seeds_differ(self):
        a, _ = _launch_decisions(FaultPlan(seed=0, kernel_fault_rate=0.3), 200)
        b, _ = _launch_decisions(FaultPlan(seed=1, kernel_fault_rate=0.3), 200)
        assert a != b

    def test_alloc_stream_independent_of_launch_count(self):
        """The alloc schedule must not shift when launches consume RNG."""
        plan = FaultPlan(seed=3, oom_rate=0.3, kernel_fault_rate=0.3)
        device = Device()

        quiet = plan.start()
        baseline = _alloc_decisions(quiet, device, 100)

        noisy = plan.start()
        for _ in range(57):  # different launch history...
            noisy.on_launch("k")
        assert _alloc_decisions(noisy, device, 100) == baseline  # ...same allocs


class TestStatsAndBudget:
    def test_stats_count_events_and_injections(self):
        plan = FaultPlan(seed=0, kernel_fault_rate=0.5)
        decisions, injector = _launch_decisions(plan, 100)
        assert injector.stats.launches_seen == 100
        assert injector.stats.kernel_faults_injected == sum(decisions)
        assert injector.stats.ooms_injected == 0

    def test_zero_rate_plan_is_a_no_op(self):
        device = Device()
        decisions, injector = _launch_decisions(FaultPlan(), 20)
        assert not any(decisions)
        assert _alloc_decisions(injector, device, 20) == [False] * 20

    def test_stall_charges_host_time(self):
        device = Device()
        plan = FaultPlan(seed=0, stall_rate=1.0, stall_seconds=0.5)
        with device.injecting(plan) as injector:
            duration = device.launch("k")
        assert device.clock.elapsed == pytest.approx(
            0.5 + device.spec.launch_overhead + duration
        )
        assert injector.stats.stall_seconds_total == pytest.approx(0.5)

    def test_kernel_fault_charges_launch_overhead(self):
        """A failed launch still burns dispatch time on the host."""
        device = Device()
        with device.injecting(FaultPlan(seed=0, kernel_fault_rate=1.0)):
            with pytest.raises(KernelFault):
                device.launch("k")
        assert device.clock.elapsed == pytest.approx(device.spec.launch_overhead)

    def test_injector_decides_and_charges_nothing(self):
        """The stall length and the failure are decisions; the device
        charges them (tests/faults/test_injection.py)."""
        injector = FaultPlan(seed=0, stall_rate=1.0, stall_seconds=0.5).start()
        assert injector.on_launch("k") == (0.5, None)
        assert injector.stats.stall_seconds_total == pytest.approx(0.5)
        stall, fault = FaultPlan(seed=0, kernel_fault_rate=1.0).start().on_launch("spmm")
        assert stall == 0.0
        assert isinstance(fault, KernelFault) and (fault.kernel, fault.index) == ("spmm", 0)
