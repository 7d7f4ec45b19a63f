"""Launch accounting pinned against ``tests/fixtures/launch_accounting.json``.

Two properties of the path every kernel launch walks: what the device
accounts (clock, phases, scopes, streams, peak memory) does not depend on
whether the profiler is watching, and what the profiler keeps when it is
watching equals, field for field, what the fixture's recording commit
kept (see ``tests/fixtures/record_launch_accounting.py``).  Two
conservation laws hold on every path as well: every second of GPU work is
some kernel stream's busy time, and a step run inside ``offload`` costs the
frontend clock nothing but the final synchronise.
"""

import json

import pytest

from repro.device import Device, use_device
from tests.fixtures.record_launch_accounting import (
    FIXTURE, HOST_STREAMS, MODES, OFFLOADED, gcn_step, run,
)

PINNED = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_mode():
    assert sorted(PINNED) == sorted(MODES)


@pytest.mark.parametrize("mode", MODES)
def test_observed_run_matches_pinned_records_and_accounting(mode):
    assert run(mode, profile=True) == PINNED[mode]


@pytest.mark.parametrize("mode", MODES)
def test_accounting_does_not_depend_on_being_observed(mode):
    unobserved = run(mode, profile=False)
    assert unobserved.pop("records") == []
    pinned = dict(PINNED[mode])
    del pinned["records"]
    assert unobserved == pinned


@pytest.mark.parametrize("mode", MODES)
def test_gpu_busy_is_the_busy_time_of_the_kernel_streams(mode):
    """Default and ``on()`` streams carry every kernel, fused or not;
    offload worker and copy streams carry host work and copies only."""
    observed = run(mode, profile=False)
    kernel_busy = sum(
        float.fromhex(busy)
        for name, (busy, _ready) in observed["streams"].items()
        if name not in HOST_STREAMS
    )
    assert float.fromhex(observed["clock"]["gpu_busy"]) == kernel_busy


@pytest.mark.parametrize("mode", OFFLOADED)
def test_offloaded_step_costs_the_frontend_only_the_final_synchronize(mode):
    observed = run(mode, profile=False)
    assert observed["clock"]["elapsed"] == observed["clock"]["wait"]
    assert observed["phase_elapsed"] == {} and observed["scope_elapsed"] == {}


def test_replayed_step_under_offload_is_its_eager_twin_less_the_saved_launches():
    """Inside ``offload`` + ``on``, a replayed step's fused heads pay their
    launch overhead on the worker, like eager launches, and the frontend
    clock stays at zero."""
    worker_cost = {}
    for compiled in (False, True):
        device = Device()
        with use_device(device):
            one_step, step = gcn_step(device, compiled)
            worker = device.stream("worker")
            with device.offload(worker, device.stream("copy")), device.on(device.stream("compute")):
                one_step()
                before = worker.busy
                one_step()
            worker_cost[compiled] = worker.busy - before
        assert device.clock.elapsed == 0.0
    plan = next(iter(step.plans.values()))
    assert step.stats.replays == 1 and step.last_session.launches_issued == plan.compiled_launches
    saved = (plan.eager_launches - plan.compiled_launches) * device.spec.launch_overhead
    assert worker_cost[True] == pytest.approx(worker_cost[False] - saved, rel=1e-12)
