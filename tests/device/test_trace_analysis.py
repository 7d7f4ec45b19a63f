"""Kernel-trace analysis utilities."""

import numpy as np
import pytest

from repro.device import (
    Device,
    kernel_stats,
    launch_bound_fraction,
    overlap_bound,
    top_kernels,
)


@pytest.fixture()
def records():
    dev = Device()
    dev.profiler.enabled = True
    for _ in range(5):
        dev.launch("matmul", flops=1e9, bytes_moved=1e6)
    for _ in range(20):
        dev.launch("add", flops=1e3, bytes_moved=1e3)
    return dev.profiler.records


class TestKernelStats:
    def test_grouped_by_name(self, records):
        stats = kernel_stats(records)
        assert {s.name for s in stats} == {"matmul", "add"}

    def test_sorted_by_total_time(self, records):
        stats = kernel_stats(records)
        assert stats[0].total_time >= stats[1].total_time
        assert stats[0].name == "matmul"

    def test_launch_counts(self, records):
        by_name = {s.name: s for s in kernel_stats(records)}
        assert by_name["matmul"].launches == 5
        assert by_name["add"].launches == 20

    def test_mean_time_consistent(self, records):
        for s in kernel_stats(records):
            assert s.mean_time == pytest.approx(s.total_time / s.launches)

    def test_top_k(self, records):
        assert [s.name for s in top_kernels(records, k=1)] == ["matmul"]

    def test_empty(self):
        assert kernel_stats([]) == []


class TestLaunchBound:
    def test_small_kernels_launch_bound(self):
        dev = Device()
        dev.profiler.enabled = True
        for _ in range(50):
            dev.launch("tiny")  # min-duration kernels
        frac = launch_bound_fraction(dev.profiler.records, dev.spec.launch_overhead)
        assert frac > 0.8

    def test_big_kernels_not_launch_bound(self):
        dev = Device()
        dev.profiler.enabled = True
        dev.launch("huge", flops=1e13)
        frac = launch_bound_fraction(dev.profiler.records, dev.spec.launch_overhead)
        assert frac < 0.1

    def test_empty(self):
        assert launch_bound_fraction([], 1e-5) == 0.0


class TestOverlapBound:
    def test_overlap_bound_balanced(self):
        ideal, speedup = overlap_bound(gpu_busy=1.0, elapsed=2.0)
        assert ideal == pytest.approx(1.0)
        assert speedup == pytest.approx(2.0)

    def test_overlap_bound_host_dominated(self):
        ideal, speedup = overlap_bound(gpu_busy=0.1, elapsed=1.0)
        assert ideal == pytest.approx(0.9)
        assert speedup == pytest.approx(1.0 / 0.9)

    def test_overlap_bound_degenerate(self):
        assert overlap_bound(0.0, 0.0) == (0.0, 1.0)
