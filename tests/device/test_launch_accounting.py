"""Launch accounting pinned against ``tests/fixtures/launch_accounting.json``.

Two properties of the path every kernel launch walks: what the device
accounts (clock, phases, scopes, streams, peak memory) does not depend on
whether the profiler is watching, and what the profiler keeps when it is
watching equals, field for field, what the fixture's recording commit
kept (see ``tests/fixtures/record_launch_accounting.py``).
"""

import json

import pytest

from tests.fixtures.record_launch_accounting import FIXTURE, MODES, run

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
