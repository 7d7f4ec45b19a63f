"""The scaling control loop: thresholds, cooldown, population caps, and
victim selection — exercised against a minimal fake replica roster."""

from dataclasses import dataclass, field
from typing import List

import pytest

from repro.fleet import Autoscaler, AutoscalerConfig


@dataclass
class FakeReplica:
    """The roster surface the autoscaler reads."""

    id: int
    queue: List = field(default_factory=list)
    state: str = "up"
    free: bool = True

    @property
    def is_up(self):
        return self.state == "up"


def _config(**overrides):
    defaults = dict(
        min_replicas=1, max_replicas=4, interval=0.01,
        scale_up_queue_depth=4.0, scale_down_queue_depth=1.0, cooldown=0.05,
    )
    defaults.update(overrides)
    return AutoscalerConfig(**defaults)


def _busy(replica_id, depth):
    return FakeReplica(id=replica_id, queue=[object()] * depth, free=False)


class TestAutoscalerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_replicas": 0},
            {"min_replicas": 4, "max_replicas": 2},
            {"interval": 0.0},
            {"cooldown": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AutoscalerConfig(**kwargs)

    def test_defaults_are_valid(self):
        AutoscalerConfig()


class TestDecide:
    def test_holds_under_light_load(self):
        scaler = Autoscaler(_config(min_replicas=1))
        # Depth 2 sits between the down (1.0) and up (4.0) thresholds.
        assert scaler.decide(1.0, [_busy(0, 2)]) == 0

    def test_scales_up_on_queue_depth(self):
        scaler = Autoscaler(_config())
        assert scaler.decide(1.0, [_busy(0, 10)]) == +1
        assert scaler.scale_ups == 1

    def test_population_cap_blocks_scale_up(self):
        scaler = Autoscaler(_config(max_replicas=2))
        roster = [_busy(0, 10), _busy(1, 10)]
        assert scaler.decide(1.0, roster) == 0

    def test_warming_replicas_count_toward_the_cap(self):
        scaler = Autoscaler(_config(max_replicas=2))
        roster = [_busy(0, 10), FakeReplica(id=1, state="warming")]
        assert scaler.decide(1.0, roster) == 0

    def test_warming_replicas_do_not_dilute_the_load_average(self):
        scaler = Autoscaler(_config(max_replicas=8))
        roster = [_busy(0, 5), FakeReplica(id=1, state="warming")]
        # Depth is 5/1 over up replicas, not 5/2: still above threshold.
        assert scaler.decide(1.0, roster) == +1

    def test_cooldown_suppresses_back_to_back_actions(self):
        scaler = Autoscaler(_config(cooldown=0.05))
        assert scaler.decide(1.0, [_busy(0, 10)]) == +1
        assert scaler.decide(1.01, [_busy(0, 10)]) == 0
        assert scaler.decide(1.06, [_busy(0, 10)]) == +1

    def test_scales_down_only_with_an_idle_replica(self):
        scaler = Autoscaler(_config(min_replicas=1))
        busy_pair = [_busy(0, 0), _busy(1, 0)]
        assert scaler.decide(1.0, busy_pair) == 0
        with_idle = [_busy(0, 0), FakeReplica(id=1)]
        assert scaler.decide(2.0, with_idle) == -1
        assert scaler.scale_downs == 1

    def test_min_replicas_floor_blocks_scale_down(self):
        scaler = Autoscaler(_config(min_replicas=1))
        assert scaler.decide(1.0, [FakeReplica(id=0)]) == 0

    def test_all_replicas_lost_adds_capacity(self):
        scaler = Autoscaler(_config(max_replicas=2))
        roster = [FakeReplica(id=0, state="down")]
        assert scaler.decide(1.0, roster) == +1

    def test_decide_advances_next_eval(self):
        scaler = Autoscaler(_config(interval=0.01))
        scaler.decide(1.0, [FakeReplica(id=0)])
        assert scaler.next_eval == pytest.approx(1.01)


class TestPickScaleDown:
    def test_picks_highest_id_idle_replica(self):
        scaler = Autoscaler(_config())
        roster = [FakeReplica(id=0), _busy(1, 3), FakeReplica(id=2)]
        assert scaler.pick_scale_down(roster).id == 2

    def test_no_idle_replica_returns_none(self):
        scaler = Autoscaler(_config())
        assert scaler.pick_scale_down([_busy(0, 1)]) is None
