"""Collective property tests: bitwise numerics, schedules, timing."""

import numpy as np
import pytest

from repro.device import Fabric, NVLINK, PCIE_P2P, current_device
from repro.dist import COMM_PHASE, Communicator, reduce_fixed_order


def _buffers(world, n=103, seed=7):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=n).astype(np.float32) * 100 for _ in range(world)]


class TestFixedOrderReduction:
    def test_matches_sequential_left_fold(self):
        arrays = _buffers(5)
        acc = arrays[0].copy()
        for a in arrays[1:]:
            acc = acc + a
        assert np.array_equal(reduce_fixed_order(arrays), acc)

    def test_mean_divides_after_summing(self):
        arrays = _buffers(4)
        expected = reduce_fixed_order(arrays) / np.float32(4)
        assert np.array_equal(reduce_fixed_order(arrays, op="mean"), expected)

    def test_rejects_empty_and_unknown_op(self):
        with pytest.raises(ValueError):
            reduce_fixed_order([])
        with pytest.raises(ValueError):
            reduce_fixed_order(_buffers(2), op="max")

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            reduce_fixed_order([np.zeros(3, np.float32), np.zeros(4, np.float32)])


class TestAllReduceBitwise:
    """Ring/tree all-reduce == sequential fixed-order reduction, bitwise."""

    # Non-power-of-two world sizes and buffer lengths that do not divide
    # evenly (uneven chunks) are the interesting cases.
    @pytest.mark.parametrize("world", [2, 3, 4, 5, 7, 8])
    @pytest.mark.parametrize("algorithm", ["ring", "tree"])
    @pytest.mark.parametrize("n", [1, 13, 103])
    def test_bitwise_equal_to_fixed_order(self, world, algorithm, n):
        arrays = _buffers(world, n=n)
        comm = Communicator(world)
        result = comm.all_reduce(arrays, algorithm=algorithm)
        assert np.array_equal(result, reduce_fixed_order(arrays))
        comm.synchronize()

    @pytest.mark.parametrize("algorithm", ["ring", "tree", "auto"])
    def test_single_replica_is_identity_and_free(self, algorithm):
        device = current_device()
        before = device.clock.elapsed
        comm = Communicator(1)
        arrays = _buffers(1)
        result = comm.all_reduce(arrays, algorithm=algorithm)
        comm.synchronize()
        assert np.array_equal(result, arrays[0])
        # No streams, no host charges, no fabric: a strict no-op.
        assert device.clock.elapsed == before
        assert comm.fabric is None
        assert comm.streams == []

    def test_mean_bitwise_equal_to_fixed_order_mean(self):
        arrays = _buffers(5)
        comm = Communicator(5)
        result = comm.all_reduce(arrays, op="mean", algorithm="ring")
        assert np.array_equal(result, reduce_fixed_order(arrays, op="mean"))

    def test_algorithm_choice_never_changes_bits(self):
        arrays = _buffers(6)
        ring = Communicator(6).all_reduce(arrays, algorithm="ring")
        tree = Communicator(6).all_reduce(arrays, algorithm="tree")
        auto = Communicator(6).all_reduce(arrays, algorithm="auto")
        assert np.array_equal(ring, tree)
        assert np.array_equal(ring, auto)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            Communicator(2).all_reduce(_buffers(2), algorithm="butterfly")

    def test_wrong_buffer_count_rejected(self):
        with pytest.raises(ValueError):
            Communicator(3).all_reduce(_buffers(2))


class TestOtherCollectives:
    def test_broadcast_returns_root_buffer(self):
        arrays = _buffers(4)
        comm = Communicator(4)
        assert np.array_equal(comm.broadcast(arrays[2], root=2), arrays[2])
        with pytest.raises(ValueError):
            comm.broadcast(arrays[0], root=4)


class TestTimingModel:
    def test_collectives_cost_time_only_at_synchronize(self):
        device = current_device()
        comm = Communicator(4)
        big = [np.ones(2_500_000, np.float32) for _ in range(4)]
        before = device.clock.elapsed
        comm.all_reduce(big, algorithm="ring")
        issued = device.clock.elapsed - before
        # Issuing is host launch overhead only; the transfer schedule is
        # in flight on the comm streams.
        assert issued == pytest.approx(device.spec.launch_overhead)
        comm.synchronize()
        waited = device.clock.elapsed - before - issued
        assert waited > 10 * issued
        assert device.clock.phase_elapsed[COMM_PHASE] == pytest.approx(
            issued + waited)

    def test_ring_beats_tree_for_large_buffers_and_loses_for_small(self):
        comm = Communicator(8)
        assert (comm.estimate_ring_seconds(64 * 2 ** 20)
                < comm.estimate_tree_seconds(64 * 2 ** 20))
        assert (comm.estimate_tree_seconds(256)
                < comm.estimate_ring_seconds(256))

    def test_auto_picks_the_analytically_cheaper_schedule(self):
        small = [np.ones(8, np.float32) for _ in range(8)]
        comm = Communicator(8)
        comm.all_reduce(small, algorithm="auto")
        assert comm.stats.by_kind == {"tree_all_reduce": 1}
        big = [np.ones(1_000_000, np.float32) for _ in range(8)]
        comm2 = Communicator(8, fabric=Fabric(8))
        comm2.all_reduce(big, algorithm="auto")
        assert comm2.stats.by_kind == {"ring_all_reduce": 1}

    def test_ring_time_tracks_analytic_estimate(self):
        device = current_device()
        comm = Communicator(4)
        big = [np.ones(1_000_000, np.float32) for _ in range(4)]
        before = device.clock.elapsed
        comm.all_reduce(big, algorithm="ring")
        comm.synchronize()
        measured = device.clock.elapsed - before
        analytic = comm.estimate_ring_seconds(4_000_000)
        # Within 2x: the schedule adds receive-side reduction kernels and
        # launch overhead on top of the pure-bandwidth bound.
        assert analytic < measured < 2 * analytic

    def test_pcie_fabric_is_slower_than_nvlink(self):
        big = [np.ones(1_000_000, np.float32) for _ in range(4)]

        def elapsed(link):
            device = current_device()
            comm = Communicator(4, link=link,
                                fabric=Fabric(4, spec=link))
            before = device.clock.elapsed
            comm.all_reduce(big, algorithm="ring")
            comm.synchronize()
            return device.clock.elapsed - before

        assert elapsed(PCIE_P2P) > elapsed(NVLINK)

    def test_profiler_records_comm_kernels_per_replica_stream(self):
        device = current_device()
        device.profiler.enabled = True
        comm = Communicator(3)
        comm.all_reduce(_buffers(3), algorithm="ring")
        comm.synchronize()
        records = [r for r in device.profiler.records
                   if r.name.startswith("nccl:")]
        assert {r.phase for r in records} == {COMM_PHASE}
        assert {r.stream for r in records} == {s.id for s in comm.streams}
        assert sum(r.duration for r in records) > 0

    def test_fabric_must_be_large_enough(self):
        with pytest.raises(ValueError):
            Communicator(4, fabric=Fabric(2))
