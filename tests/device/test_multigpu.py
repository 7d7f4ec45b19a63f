"""DataParallel communication model (Fig. 6 substrate)."""

import pytest

from repro.device import Device
from repro.train.multi_gpu import DataParallelPlan, charge_iteration_overhead


def make_plan(n_gpus, param_bytes=4_000_000, input_bytes=8_000_000, output_bytes=40_000):
    return DataParallelPlan(
        n_gpus=n_gpus,
        param_bytes=param_bytes,
        input_bytes=input_bytes,
        output_bytes=output_bytes,
    )


class TestDataParallelPlan:
    def test_single_gpu_free(self):
        dev = Device()
        cost = charge_iteration_overhead(dev, make_plan(1))
        assert cost == 0.0
        assert dev.clock.elapsed == 0.0

    def test_overhead_grows_with_gpu_count(self):
        costs = []
        for n in (2, 4, 8):
            dev = Device()
            costs.append(charge_iteration_overhead(dev, make_plan(n)))
        assert costs[0] < costs[1] < costs[2]

    def test_cost_charged_to_clock(self):
        dev = Device()
        cost = charge_iteration_overhead(dev, make_plan(4))
        assert dev.clock.elapsed == pytest.approx(cost)
        assert dev.clock.gpu_busy == 0.0  # pure transfer/host time

    def test_param_broadcast_dominates_for_big_models(self):
        small = charge_iteration_overhead(Device(), make_plan(8, param_bytes=1_000))
        big = charge_iteration_overhead(Device(), make_plan(8, param_bytes=100_000_000))
        assert big > 10 * small

    def test_invalid_gpu_count(self):
        with pytest.raises(ValueError):
            make_plan(0)
