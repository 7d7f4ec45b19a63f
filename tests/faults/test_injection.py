"""Device/MemoryPool fault hooks and the OOM diagnostics they rely on."""

import numpy as np
import pytest

from repro.device import Device, OutOfMemoryError, use_device
from repro.device.memory import MemoryPool
from repro.faults import FaultPlan, KernelFault


class TestInjectingContext:
    def test_installs_and_removes_hooks(self):
        device = Device()
        plan = FaultPlan(seed=0)
        assert device.faults is None
        with device.injecting(plan) as injector:
            assert device.faults is injector
            assert device.memory.injector is injector
        assert device.faults is None
        assert device.memory.injector is None

    def test_hooks_removed_even_on_error(self):
        device = Device()
        with pytest.raises(RuntimeError, match="boom"):
            with device.injecting(FaultPlan()):
                raise RuntimeError("boom")
        assert device.faults is None
        assert device.memory.injector is None

    def test_nested_injection_rejected(self):
        device = Device()
        with device.injecting(FaultPlan()):
            with pytest.raises(RuntimeError, match="active fault injector"):
                with device.injecting(FaultPlan()):
                    pass

    def test_accepts_prebuilt_injector(self):
        """A started injector can be reinstalled, keeping its decision
        stream across installs (what fault-tolerant training relies on)."""
        device = Device()
        injector = FaultPlan(seed=0, kernel_fault_rate=1.0).start()
        with device.injecting(injector):
            with pytest.raises(KernelFault):
                device.launch("k")
        with device.injecting(injector):
            with pytest.raises(KernelFault):
                device.launch("k")
        assert injector.stats.kernel_faults_injected == 2

    def test_launch_unaffected_without_injector(self):
        device = Device()
        device.launch("k")  # must not raise


class TestLaunchInjection:
    def test_certain_kernel_fault_raises_from_launch(self):
        device = Device()
        with device.injecting(FaultPlan(seed=0, kernel_fault_rate=1.0)) as inj:
            with pytest.raises(KernelFault) as exc:
                device.launch("spmm_csr")
        assert exc.value.kernel == "spmm_csr"
        assert inj.stats.kernel_faults_injected == 1

    def test_stalls_slow_the_clock_but_do_not_raise(self):
        device = Device()
        plan = FaultPlan(seed=0, stall_rate=1.0, stall_seconds=0.01)
        before = device.clock.elapsed
        with device.injecting(plan) as inj:
            for _ in range(5):
                device.launch("k")
        stalled = device.clock.elapsed - before
        assert inj.stats.stalls_injected == 5
        assert stalled >= 5 * 0.01

    @pytest.mark.parametrize(
        "plan, raises",
        [
            (FaultPlan(seed=0, kernel_fault_rate=1.0), True),
            (FaultPlan(seed=0, stall_rate=1.0, stall_seconds=0.01), False),
        ],
        ids=["kernel_fault", "stall"],
    )
    def test_offloaded_launch_pays_faults_on_the_worker(self, plan, raises):
        """Inside ``offload`` + ``on`` the worker issues the launch, so the
        worker pays what the fault wasted, never the frontend clock."""
        device = Device()
        worker = device.stream("worker")
        with device.injecting(plan), device.offload(worker), device.on(device.stream("s")):
            if raises:
                with pytest.raises(KernelFault):
                    device.launch("k")
                wasted = device.spec.launch_overhead
            else:
                device.launch("k")
                wasted = plan.stall_seconds + device.spec.launch_overhead
        assert device.clock.elapsed == 0.0
        assert worker.ready == pytest.approx(wasted)

    def test_tensor_ops_hit_the_alloc_hook(self):
        """Injected OOM surfaces through ordinary tensor allocation."""
        device = Device()
        with use_device(device):
            from repro.tensor import Tensor

            with device.injecting(FaultPlan(seed=0, oom_rate=1.0)):
                with pytest.raises(OutOfMemoryError, match="injected"):
                    Tensor(np.zeros((64,), np.float32))


class TestOOMDiagnostics:
    """The OOM message must carry usage, capacity and the requested size."""

    def test_real_oom_message_fields(self):
        pool = MemoryPool(1000)
        pool.alloc(600)
        with pytest.raises(OutOfMemoryError) as exc:
            pool.alloc(500)
        message = str(exc.value)
        assert "requested 500 bytes" in message
        assert "600 in use" in message
        assert "1000 capacity" in message
        assert "400 free" in message

    def test_injected_oom_message_fields(self):
        pool = MemoryPool(2048)
        pool.alloc(48)
        injector = FaultPlan(seed=0, oom_rate=1.0).start()
        pool.injector = injector
        with pytest.raises(OutOfMemoryError) as exc:
            pool.alloc(100)
        message = str(exc.value)
        assert message.startswith("injected")
        assert "requested 100 bytes" in message
        assert "48 in use" in message
        assert "2048 capacity" in message
        assert "2000 free" in message

    def test_injected_oom_does_not_reserve_bytes(self):
        pool = MemoryPool(2048)
        pool.injector = FaultPlan(seed=0, oom_rate=1.0).start()
        with pytest.raises(OutOfMemoryError):
            pool.alloc(100)
        assert pool.current == 0
