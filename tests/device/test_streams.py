"""Streams, events, async launches and host synchronisation."""

import pytest

from repro.device import DEFAULT_STREAM_ID, Device, Event, Stream


class TestStreamPrimitives:
    def test_enqueue_serialises_within_stream(self):
        device = Device()
        s = device.stream("s")
        first = s.enqueue(1.0)
        second = s.enqueue(2.0)
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(3.0)
        assert s.busy == pytest.approx(3.0)

    def test_enqueue_starts_no_earlier_than_now(self):
        device = Device()
        device.clock.advance_host(5.0)
        s = device.stream("s")
        done = s.enqueue(1.0)
        assert done == pytest.approx(6.0)

    def test_enqueue_honours_after_dependency(self):
        device = Device()
        s = device.stream("s")
        done = s.enqueue(1.0, after=10.0)
        assert done == pytest.approx(11.0)

    def test_enqueue_rejects_negative_work(self):
        device = Device()
        with pytest.raises(ValueError):
            device.stream("s").enqueue(-1.0)

    def test_record_and_query(self):
        device = Device()
        s = device.stream("s")
        s.enqueue(2.0)
        event = s.record()
        assert isinstance(event, Event)
        assert event.timestamp == pytest.approx(2.0)
        assert event.stream_id == s.id

    def test_wait_event_pushes_ready_forward_only(self):
        device = Device()
        a, b = device.stream("a"), device.stream("b")
        a.enqueue(3.0)
        b.wait_event(a.record())
        assert b.ready == pytest.approx(3.0)
        b.wait_event(Event(timestamp=1.0))  # already passed: no effect
        assert b.ready == pytest.approx(3.0)


class TestDeviceStreamRegistry:
    def test_default_stream_is_stream_zero(self):
        device = Device()
        assert device.default_stream.id == DEFAULT_STREAM_ID
        assert device.stream("default") is device.default_stream

    def test_get_or_create_by_name(self):
        device = Device()
        s = device.stream("prefetch")
        assert device.stream("prefetch") is s
        assert s.id == 1
        assert device.stream_names() == {0: "default", 1: "prefetch"}
        assert [x.id for x in device.streams] == [0, 1]

    def test_reset_zeroes_stream_timelines(self):
        device = Device()
        s = device.stream("s")
        s.enqueue(1.0)
        device.reset()
        assert s.ready == 0.0 and s.busy == 0.0


class TestAsyncLaunch:
    def test_default_launch_is_serial(self):
        device = Device()
        duration = device.launch("matmul", flops=1e9)
        assert device.clock.elapsed == pytest.approx(
            device.spec.launch_overhead + duration
        )
        assert device.clock.gpu_busy == pytest.approx(duration)

    def test_stream_launch_only_costs_host_the_overhead(self):
        device = Device()
        s = device.stream("compute")
        with device.on(s):
            duration = device.launch("matmul", flops=1e9)
        assert device.clock.elapsed == pytest.approx(device.spec.launch_overhead)
        # The work is real GPU busy time even before anyone synchronises.
        assert device.clock.gpu_busy == pytest.approx(duration)
        assert s.ready == pytest.approx(device.spec.launch_overhead + duration)

    def test_on_default_stream_stays_serial(self):
        device = Device()
        with device.on(device.default_stream):
            duration = device.launch("matmul", flops=1e9)
        assert device.clock.elapsed == pytest.approx(
            device.spec.launch_overhead + duration
        )

    def test_explicit_stream_argument(self):
        device = Device()
        s = device.stream("compute")
        device.launch("matmul", flops=1e9, stream=s)
        assert device.clock.elapsed == pytest.approx(device.spec.launch_overhead)

    def test_async_records_carry_stream_id(self):
        device = Device()
        device.profiler.enabled = True
        s = device.stream("compute")
        device.launch("matmul", flops=1e6, stream=s)
        device.launch("relu", flops=1e3)
        assert [(r.name, r.stream) for r in device.profiler.records] == [
            ("matmul", s.id), ("relu", 0)
        ]

    def test_utilization_rises_under_overlap(self):
        serial, overlapped = Device(), Device()
        serial.launch("matmul", flops=1e10)
        s = overlapped.stream("compute")
        with overlapped.on(s):
            overlapped.launch("matmul", flops=1e10)
        overlapped.synchronize(s)
        # Same work, but the overlapped clock never double-pays host+GPU
        # serially, so utilisation can only be >= the serial run's.
        assert overlapped.clock.utilization() >= serial.clock.utilization()


class TestHostSynchronisation:
    def test_wait_event_advances_to_timestamp(self):
        device = Device()
        s = device.stream("s")
        s.enqueue(2.0)
        device.wait_event(s.record())
        assert device.clock.elapsed == pytest.approx(2.0)
        assert device.clock.wait == pytest.approx(2.0)

    def test_wait_on_past_event_is_free(self):
        device = Device()
        device.clock.advance_host(5.0)
        device.wait_event(Event(timestamp=1.0))
        assert device.clock.elapsed == pytest.approx(5.0)

    def test_synchronize_stream_and_all(self):
        device = Device()
        a, b = device.stream("a"), device.stream("b")
        a.enqueue(1.0)
        b.enqueue(4.0)
        device.synchronize(a)
        assert device.clock.elapsed == pytest.approx(1.0)
        device.synchronize()
        assert device.clock.elapsed == pytest.approx(4.0)

    def test_wait_counts_as_busy_not_idle(self):
        device = Device()
        s = device.stream("s")
        s.enqueue(1.0)
        device.synchronize(s)
        assert device.clock.busy_fraction() == pytest.approx(1.0)


class TestOffload:
    def test_host_work_lands_on_worker_stream(self):
        device = Device()
        worker = device.stream("worker")
        with device.offload(worker):
            device.host(0.5)
        assert device.clock.elapsed == 0.0
        assert worker.ready == pytest.approx(0.5)

    def test_transfer_sequences_after_worker(self):
        device = Device()
        worker, copy = device.stream("worker"), device.stream("copy")
        with device.offload(worker, copy_stream=copy):
            device.host(0.5)
            device.transfer(1e6)
        assert copy.ready == pytest.approx(0.5 + device.spec.transfer_time(1e6))

    def test_nested_offload_rejected(self):
        device = Device()
        worker = device.stream("worker")
        with device.offload(worker):
            with pytest.raises(RuntimeError):
                with device.offload(worker):
                    pass

    def test_worker_cannot_start_in_the_past(self):
        device = Device()
        worker = device.stream("worker")
        device.clock.advance_host(3.0)
        with device.offload(worker):
            device.host(1.0)
        assert worker.ready == pytest.approx(4.0)
