"""Generic prefetching loader: items, ordering, and overlap accounting."""

import pytest

from repro.device import PrefetchLoader, current_device
from repro.device.prefetch import COPY_STREAM, WORKER_STREAM


class FakeLoader:
    """Charges a fixed host collation cost per item, like a real loader."""

    def __init__(self, n_items: int, collate_cost: float):
        self.n_items = n_items
        self.collate_cost = collate_cost

    def __len__(self):
        return self.n_items

    def __iter__(self):
        device = current_device()
        for i in range(self.n_items):
            with device.clock.phase("data_loading"):
                device.host(self.collate_cost)
            yield i


def compute(seconds: float) -> None:
    """Stand-in for the per-batch training step (serial device work)."""
    current_device().clock.advance_gpu(seconds)


class TestPrefetchLoader:
    def test_yields_same_items_in_order(self):
        assert list(PrefetchLoader(FakeLoader(5, 0.01))) == [0, 1, 2, 3, 4]

    def test_len_delegates(self):
        assert len(PrefetchLoader(FakeLoader(7, 0.01))) == 7

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            PrefetchLoader(FakeLoader(3, 0.01), depth=0)

    def test_hides_collation_behind_compute(self, fresh_device):
        """compute > collate: epoch time converges to the compute total."""
        n, collate, work = 20, 0.01, 0.02
        t0 = fresh_device.clock.elapsed
        for _ in PrefetchLoader(FakeLoader(n, collate)):
            compute(work)
        elapsed = fresh_device.clock.elapsed - t0
        # One pipeline fill (the first collation) + n compute steps.
        assert elapsed == pytest.approx(collate + n * work, rel=1e-6)

    def test_loading_dominated_epoch_costs_the_loading(self, fresh_device):
        """collate > compute: the worker becomes the critical path."""
        n, collate, work = 20, 0.03, 0.01
        t0 = fresh_device.clock.elapsed
        for _ in PrefetchLoader(FakeLoader(n, collate)):
            compute(work)
        elapsed = fresh_device.clock.elapsed - t0
        # All n collations back to back, plus the last item's compute.
        assert elapsed == pytest.approx(n * collate + work, rel=1e-6)

    def test_serial_epoch_is_sum_prefetch_is_max(self, fresh_device):
        n, collate, work = 10, 0.02, 0.02
        clock = fresh_device.clock
        t0 = clock.elapsed
        for _ in FakeLoader(n, collate):
            compute(work)
        serial = clock.elapsed - t0
        t0 = clock.elapsed
        for _ in PrefetchLoader(FakeLoader(n, collate)):
            compute(work)
        overlapped = clock.elapsed - t0
        assert serial == pytest.approx(n * (collate + work), rel=1e-6)
        assert overlapped < serial
        assert overlapped == pytest.approx(max(n * collate, n * work) + min(collate, work),
                                           rel=1e-6)

    def test_unhidden_wait_lands_in_data_loading_phase(self, fresh_device):
        clock = fresh_device.clock
        before = clock.phase_elapsed.get("data_loading", 0.0)
        for _ in PrefetchLoader(FakeLoader(5, 0.05)):
            compute(0.01)
        waited = clock.phase_elapsed.get("data_loading", 0.0) - before
        assert waited > 0.0

    def test_reuses_named_streams(self, fresh_device):
        list(PrefetchLoader(FakeLoader(3, 0.01)))
        names = fresh_device.stream_names()
        worker = fresh_device.stream(WORKER_STREAM)
        assert worker.busy > 0.0
        list(PrefetchLoader(FakeLoader(3, 0.01)))
        assert fresh_device.stream_names() == names
        assert set(names.values()) == {"default", WORKER_STREAM, COPY_STREAM}

    def test_empty_inner_loader(self):
        assert list(PrefetchLoader(FakeLoader(0, 0.01))) == []
