"""Kernel records carry the active clock phase; the records and the
Chrome trace expose the sampling/loading/compute attribution."""

import json

import numpy as np

from repro.device import Device, use_device
from repro.device.timeline import to_chrome_trace
from repro.tensor import Tensor
from repro.tensor import ops


def _matmul(n=16):
    a = Tensor(np.ones((n, n), np.float32))
    b = Tensor(np.ones((n, n), np.float32))
    return ops.matmul(a, b)


class TestPhaseAttribution:
    def test_records_carry_active_phase(self):
        device = Device()
        device.profiler.enabled = True
        with use_device(device):
            with device.clock.phase("sampling"):
                _matmul()
            with device.clock.phase("forward"):
                _matmul()
            _matmul()  # outside any phase
        phases = [r.phase for r in device.profiler.records]
        assert "sampling" in phases
        assert "forward" in phases
        assert "" in phases

    def test_each_record_carries_the_phase_it_launched_in(self):
        device = Device()
        device.profiler.enabled = True
        with use_device(device):
            with device.clock.phase("sampling"):
                _matmul()
                _matmul()
            with device.clock.phase("forward"):
                _matmul(32)
            _matmul()
        records = device.profiler.records
        assert [r.phase for r in records] == ["sampling", "sampling", "forward", ""]
        assert all(r.duration > 0 for r in records)

    def test_chrome_trace_events_carry_phase(self):
        device = Device()
        device.profiler.enabled = True
        with use_device(device):
            with device.clock.phase("sampling"):
                _matmul()
        trace = json.loads(to_chrome_trace(device.profiler.records))
        kernel_events = [e for e in trace["traceEvents"]
                         if e.get("args", {}).get("phase") == "sampling"]
        assert kernel_events
