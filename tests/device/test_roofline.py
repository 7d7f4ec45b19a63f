"""Roofline classification: boundary exactness at the ridge point, the
launch-bound threshold, zero-FLOP copies, and record sequences."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.device import (
    classify_records,
    classify_transfer,
    roofline,
)
from repro.device.gpu import RTX_2080TI, GPUSpec, kernel_efficiency
from repro.device.kernel import KernelRecord

# Round numbers so the ridge point (10 FLOP/byte) and every leg duration
# are exact in floating point: boundary cases below test *equalities*.
SPEC = GPUSpec(
    name="test-gpu",
    peak_flops=1e12,
    mem_bandwidth=1e11,
    memory_bytes=1 << 30,
    launch_overhead=35e-6,
    min_kernel_time=3e-6,
    pcie_bandwidth=1e10,
    pcie_latency=10e-6,
)


def _record(name, flops, nbytes, duration=None):
    if duration is None:
        duration = SPEC.kernel_time(flops, nbytes, kernel_efficiency(name))
    return KernelRecord(
        name=name, scope=(), duration=duration, flops=flops,
        bytes_moved=nbytes, timestamp=0.0,
    )


def classify_kernel(spec, flops, nbytes, efficiency=1.0):
    """One launch through ``classify_records``, at a chosen efficiency."""
    record = KernelRecord(
        name="kernel", scope=(), duration=spec.kernel_time(flops, nbytes, efficiency),
        flops=flops, bytes_moved=nbytes, timestamp=0.0,
    )
    with mock.patch.object(roofline, "kernel_efficiency", lambda name: efficiency):
        return classify_records(spec, [record])


class TestRidgePoint:
    def test_ridge_point_value(self):
        assert SPEC.ridge_point == 10.0
        assert RTX_2080TI.ridge_point == pytest.approx(
            RTX_2080TI.peak_flops / RTX_2080TI.mem_bandwidth
        )

    def test_exactly_at_ridge_is_compute(self):
        # 1e8 bytes -> memory leg 1 ms >> launch overhead, so the bound
        # is decided purely by the legs; at the ridge both legs are equal
        # and the tie deterministically goes to compute.
        nbytes = 1e8
        flops = nbytes * SPEC.ridge_point
        compute_leg, memory_leg = SPEC.roofline_times(flops, nbytes)
        assert compute_leg == memory_leg
        assert classify_kernel(SPEC, flops, nbytes) == "compute"

    def test_epsilon_below_ridge_is_bandwidth(self):
        nbytes = 1e8
        flops = nbytes * SPEC.ridge_point * (1 - 1e-9)
        assert classify_kernel(SPEC, flops, nbytes) == "bandwidth"

    def test_epsilon_above_ridge_is_compute(self):
        nbytes = 1e8
        flops = nbytes * SPEC.ridge_point * (1 + 1e-9)
        assert classify_kernel(SPEC, flops, nbytes) == "compute"

    def test_efficiency_derates_both_legs_equally(self):
        # Efficiency scales compute and memory legs together, so the
        # ridge point — and the compute/bandwidth verdict — is
        # efficiency-independent.
        nbytes = 1e8
        for eff in (1.0, 0.5, 0.2):
            at = classify_kernel(SPEC, nbytes * SPEC.ridge_point, nbytes, eff)
            below = classify_kernel(SPEC, nbytes, nbytes, eff)
            assert (at, below) == ("compute", "bandwidth")


class TestLaunchBound:
    def test_tiny_kernel_is_launch_bound(self):
        # 100 bytes -> 1 ns memory leg, floored to min_kernel_time (3 us),
        # far under the 35 us dispatch cost.
        assert classify_kernel(SPEC, 0.0, 100.0) == "launch"

    def test_zero_work_kernel_is_launch_bound(self):
        assert classify_kernel(SPEC, 0.0, 0.0) == "launch"

    def test_body_equal_to_overhead_is_launch_bound(self):
        # Boundary: body == launch_overhead classifies as launch (<=),
        # one part in 1e9 past it flips to the roofline legs.
        nbytes = SPEC.mem_bandwidth * SPEC.launch_overhead
        assert classify_kernel(SPEC, 0.0, nbytes) == "launch"
        assert classify_kernel(SPEC, 0.0, nbytes * (1 + 1e-9)) == "bandwidth"

    def test_launch_threshold_scales_with_efficiency(self):
        # At 50% efficiency the body crosses the dispatch cost at half
        # the byte count, so the same kernel can be launch-bound at
        # eff=1.0 and bandwidth-bound at eff=0.5.
        nbytes = SPEC.mem_bandwidth * SPEC.launch_overhead * 0.75
        assert classify_kernel(SPEC, 0.0, nbytes, efficiency=1.0) == "launch"
        assert classify_kernel(SPEC, 0.0, nbytes, efficiency=0.5) == "bandwidth"


class TestTransfers:
    def test_zero_flop_copies_never_compute(self):
        # Copies sit on the PCIe roofline: latency- ("launch") or
        # bandwidth-bound, never compute.
        for nbytes in (0.0, 1.0, 1e5, 1e9):
            assert classify_transfer(SPEC, nbytes) in ("launch", "bandwidth")

    def test_transfer_latency_boundary(self):
        # wire == pcie_latency at exactly bandwidth * latency bytes.
        nbytes = SPEC.pcie_bandwidth * SPEC.pcie_latency
        assert classify_transfer(SPEC, nbytes) == "launch"
        assert classify_transfer(SPEC, nbytes * (1 + 1e-9)) == "bandwidth"

    def test_single_memcpy_record_matches_classify_transfer(self):
        for nbytes in (1e3, 1e9):
            record = _record("memcpy_h2d", 0.0, nbytes,
                             duration=SPEC.transfer_time(nbytes))
            assert classify_records(SPEC, [record]) == classify_transfer(
                SPEC, nbytes
            )


class TestClassifyRecords:
    def test_empty_sequence_raises(self):
        with pytest.raises(ValueError):
            classify_records(SPEC, [])

    def test_many_tiny_launches_are_launch_bound(self):
        records = [_record("add", 0.0, 100.0) for _ in range(8)]
        assert classify_records(SPEC, records) == "launch"

    def test_mixed_op_follows_dominant_leg(self):
        # One big GEMM (compute leg 10x the memory leg) next to a small
        # bandwidth kernel: the op as a whole is compute-bound.
        records = [_record("gemm", 1e11, 1e9), _record("add", 0.0, 1e7)]
        assert classify_records(SPEC, records) == "compute"

