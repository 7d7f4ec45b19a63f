"""Simulated device: clock, memory pool, profiler, kernel cost model."""

import gc
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.device import (
    Device,
    GPUSpec,
    MemoryPool,
    OutOfMemoryError,
    RTX_2080TI,
    TOY_GPU,
    current_device,
    use_device,
)
from repro.device.gpu import kernel_efficiency


class TestGPUSpec:
    def test_roofline_compute_bound(self):
        spec = GPUSpec("t", peak_flops=1e9, mem_bandwidth=1e12, memory_bytes=1, min_kernel_time=0.0)
        assert spec.kernel_time(flops=2e9, bytes_moved=0) == pytest.approx(2.0)

    def test_roofline_memory_bound(self):
        spec = GPUSpec("t", peak_flops=1e15, mem_bandwidth=1e9, memory_bytes=1, min_kernel_time=0.0)
        assert spec.kernel_time(flops=1, bytes_moved=3e9) == pytest.approx(3.0)

    def test_min_kernel_time_floor(self):
        assert RTX_2080TI.kernel_time(0, 0) == RTX_2080TI.min_kernel_time

    def test_efficiency_scales_duration(self):
        spec = GPUSpec("t", peak_flops=1e9, mem_bandwidth=1e9, memory_bytes=1, min_kernel_time=0.0)
        assert spec.kernel_time(1e9, 0, efficiency=0.5) == pytest.approx(2.0)

    def test_efficiency_validated(self):
        with pytest.raises(ValueError):
            RTX_2080TI.kernel_time(1, 1, efficiency=0.0)

    def test_transfer_time_latency_plus_bandwidth(self):
        t = RTX_2080TI.transfer_time(12e9)
        assert t == pytest.approx(RTX_2080TI.pcie_latency + 1.0)

    def test_kernel_efficiency_table(self):
        assert kernel_efficiency("gspmm_backward_x") < kernel_efficiency("matmul")
        assert kernel_efficiency("scatter_sum") < kernel_efficiency("add")


class TestClockAndLaunch:
    def test_launch_advances_host_and_gpu(self):
        dev = Device()
        dur = dev.launch("matmul", flops=1e9, bytes_moved=1e6)
        assert dev.clock.gpu_busy == pytest.approx(dur)
        assert dev.clock.elapsed == pytest.approx(dur + dev.spec.launch_overhead)

    def test_host_work_lowers_utilization(self):
        dev = Device()
        dev.launch("k", flops=1e9)
        util_before = dev.clock.utilization()
        dev.host(1.0)
        assert dev.clock.utilization() < util_before

    def test_phases_attribute_time(self):
        dev = Device()
        with dev.clock.phase("data_loading"):
            dev.host(0.5)
        with dev.clock.phase("forward"):
            dev.launch("k")
        assert dev.clock.phase_elapsed["data_loading"] == pytest.approx(0.5)
        assert dev.clock.phase_elapsed["forward"] > 0

    def test_nested_phases_inner_wins(self):
        dev = Device()
        with dev.clock.phase("outer"):
            with dev.clock.phase("inner"):
                dev.host(1.0)
        assert dev.clock.phase_elapsed.get("inner") == pytest.approx(1.0)
        assert "outer" not in dev.clock.phase_elapsed or dev.clock.phase_elapsed["outer"] == 0

    def test_snapshot_delta(self):
        dev = Device()
        dev.host(1.0)
        snap = dev.clock.snapshot()
        with dev.clock.phase("forward"):
            dev.host(2.0)
        delta = snap.delta(dev.clock)
        assert delta.elapsed == pytest.approx(2.0)
        assert delta.phase_elapsed["forward"] == pytest.approx(2.0)

    def test_snapshot_delta_keeps_phase_order(self):
        dev = Device()
        with dev.clock.phase("data_loading"):
            dev.host(1.0)
        snap = dev.clock.snapshot()
        for name in ("forward", "backward", "update", "data_loading", "evaluate"):
            with dev.clock.phase(name):
                dev.host(1.0)
        delta = snap.delta(dev.clock)
        assert list(delta.phase_elapsed) == list(dev.clock.phase_elapsed)
        assert list(delta.phase_elapsed)[0] == "data_loading"

    def test_snapshot_delta_ignores_hash_seed(self):
        script = (
            "import json\n"
            "from repro.device import Device\n"
            "dev = Device()\n"
            "snap = dev.clock.snapshot()\n"
            "for name in 'data_loading forward backward update evaluate comm sampling'.split():\n"
            "    with dev.clock.phase(name):\n"
            "        dev.host(1.0)\n"
            "print(json.dumps(snap.delta(dev.clock).phase_elapsed))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
            )
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith('{"data_loading"')

    def test_negative_advance_rejected(self):
        dev = Device()
        with pytest.raises(ValueError):
            dev.clock.advance_host(-1.0)

    def test_reset_inside_phase_rejected(self):
        dev = Device()
        with pytest.raises(RuntimeError):
            with dev.clock.phase("x"):
                dev.clock.reset()

    def test_utilization_zero_when_idle(self):
        assert Device().clock.utilization() == 0.0


def _spy_frees(pool):
    """The sizes ``pool`` frees from now on, in order."""
    frees, free = [], pool.free
    pool.free = lambda nbytes: (frees.append(nbytes), free(nbytes))[1]
    return frees


def _keeping(charge):
    """A closure that holds ``charge``, as a backward closure does."""
    return lambda: charge


class TestMemoryPool:
    def test_alloc_free_peak(self):
        pool = MemoryPool(100)
        pool.alloc(60)
        pool.free(30)
        pool.alloc(20)
        assert pool.current == 50
        assert pool.peak == 60

    def test_oom(self):
        pool = MemoryPool(10)
        with pytest.raises(OutOfMemoryError):
            pool.alloc(11)

    def test_track_frees_on_gc(self):
        pool = MemoryPool(10**6)
        arr = np.zeros(100, np.float32)
        pool.track(arr)
        assert pool.current == 400
        del arr
        gc.collect()
        assert pool.current == 0

    def test_many_track_collect_cycles_leave_nothing_behind(self):
        pool = MemoryPool(10**6)
        for _ in range(10**5):
            pool.track(np.empty(4, np.float32))  # collected as soon as track returns
        assert pool._tracked == {}
        assert pool.current == 0
        assert pool.peak == 16

    def test_recycled_id_is_charged_again(self):
        pool = MemoryPool(10**6)
        seen = set()
        for _ in range(1000):
            arr = np.empty(8, np.float32)
            recycled = id(arr) in seen
            seen.add(id(arr))
            pool.track(arr)
            assert pool.current == 32
            del arr
            assert pool.current == 0
            if recycled:
                return
        pytest.skip("the allocator never handed an id out twice")

    def test_stale_release_leaves_the_new_owner_of_an_id_tracked(self):
        pool = MemoryPool(10**6)
        first, second = np.empty(4, np.float32), np.empty(8, np.float32)
        pool.track(first)
        charge = pool.track(second)
        stale = pool._tracked.pop(id(first))
        # As if ``second`` had been handed ``first``'s id before the callback ran.
        pool._tracked[stale.key] = pool._tracked.pop(id(second))
        pool._drop(stale)
        assert list(pool._tracked) == [stale.key] and pool._tracked[stale.key].charge is charge
        del stale  # the stale hold was the last on ``first``'s charge
        assert pool.current == 32

    def test_a_free_of_more_than_is_in_use_is_refused(self):
        pool = MemoryPool(100)
        pool.alloc(30)
        with pytest.raises(ValueError, match="cannot free 31 bytes with 30 in use"):
            pool.free(31)
        assert pool.current == 30

    def test_a_charge_with_no_array_is_freed_when_its_holder_goes(self):
        pool = MemoryPool(10**6)
        charge = pool.reserve(64)
        assert pool.current == 64 and pool._tracked == {}
        del charge
        assert pool.current == 0

    @pytest.mark.parametrize("first_to_go", ["array", "closure"])
    def test_a_charge_held_by_its_array_and_a_closure_is_freed_once_by_the_later(self, first_to_go):
        pool = MemoryPool(10**6)
        frees = _spy_frees(pool)
        holders = {"array": np.empty(4, np.float32)}
        holders["closure"] = _keeping(pool.track(holders["array"]))
        del holders[first_to_go]
        assert pool.current == 16 and frees == []
        holders.clear()
        assert pool.current == 0 and frees == [16]

    def test_holding_a_charge_twice_holds_it_once(self):
        pool = MemoryPool(10**6)
        frees = _spy_frees(pool)
        array, shared = np.empty(4, np.float32), np.empty(4, np.float32)
        charge = pool.track(array)
        pool.share(shared, charge)
        view = array[1:]
        pool.track(view)
        for held in (array, shared, view, array):
            pool.hold(held)
        assert [c.nbytes for c in pool._held.values()] == [16, 12]
        del array, shared, view, held, charge
        assert frees == []
        pool.release_held()
        assert frees == [16, 12] and pool.current == 0

    def test_release_held_frees_in_hold_order_and_leaves_live_charges_charged(self):
        pool = MemoryPool(10**6)
        frees = _spy_frees(pool)
        arrays = [np.empty(n, np.float32) for n in (1, 2, 3)]
        live = np.empty(5, np.float32)
        for array in arrays + [live]:
            pool.track(array)
        for array in (arrays[2], live, arrays[0], arrays[1]):
            pool.hold(array)
        del arrays, array  # the host frees them; the hold keeps their charges
        assert pool.current == 44 and frees == []
        pool.release_held()
        assert frees == [12, 4, 8] and pool.current == 20 and pool._held == {}
        del live
        assert frees == [12, 4, 8, 20] and pool.current == 0

    def test_out_of_memory_registers_nothing(self):
        pool = MemoryPool(100)
        arr = np.zeros(100, np.float32)
        with pytest.raises(OutOfMemoryError):
            pool.track(arr)
        assert pool._tracked == {} and pool.current == 0
        del arr
        gc.collect()
        assert pool.current == 0

    def test_injected_fault_registers_nothing(self):
        class RefuseAll:
            def on_alloc(self, pool, nbytes):
                raise OutOfMemoryError("injected")

        pool = MemoryPool(10**6)
        pool.injector = RefuseAll()
        arr = np.zeros(10, np.float32)
        with pytest.raises(OutOfMemoryError, match="injected"):
            pool.track(arr)
        assert pool._tracked == {} and pool.current == 0
        pool.injector = None
        pool.track(arr)  # not remembered as tracked by the failed attempt
        assert pool.current == 40

    def test_track_dedupes(self):
        pool = MemoryPool(10**6)
        arr = np.zeros(10, np.float32)
        pool.track(arr)
        pool.track(arr)
        assert pool.current == 40

    def test_reset_peak(self):
        pool = MemoryPool(100)
        pool.alloc(80)
        pool.free(80)
        pool.reset_peak()
        assert pool.peak == 0

    def test_model_oom_on_toy_gpu(self):
        """A batch that exceeds the toy GPU's 64 MiB must raise OOM."""
        dev = Device(TOY_GPU)
        with use_device(dev):
            from repro.tensor import Tensor

            with pytest.raises(OutOfMemoryError):
                Tensor(np.zeros((80 * 1024 * 1024 // 4,), np.float32))


class TestProfiler:
    def test_records_only_when_enabled(self):
        dev = Device()
        dev.launch("a")
        dev.profiler.enabled = True
        dev.launch("b")
        assert [r.name for r in dev.profiler.records] == ["b"]

    def test_scope_tagging_and_aggregation(self):
        dev = Device()
        dev.profiler.enabled = True
        with dev.scope("net"):
            with dev.scope("conv1"):
                dev.launch("matmul", flops=1e9)
            with dev.scope("conv2"):
                dev.launch("matmul", flops=2e9)
        profiler = dev.profiler
        assert [r.scope for r in profiler.records] == [("net", "conv1"), ("net", "conv2")]
        conv1, conv2 = (r.duration for r in profiler.records)
        assert 0 < conv1 < conv2
        assert conv1 + conv2 == pytest.approx(profiler.total_time())


class TestDeviceContext:
    def test_use_device_swaps_and_restores(self):
        outer = current_device()
        inner = Device()
        with use_device(inner) as d:
            assert current_device() is d is inner
        assert current_device() is outer

    def test_reset_clears_everything(self):
        dev = Device()
        dev.launch("k")
        dev.profiler.enabled = True
        dev.launch("k2")
        dev.reset()
        assert dev.clock.elapsed == 0
        assert dev.profiler.records == []
