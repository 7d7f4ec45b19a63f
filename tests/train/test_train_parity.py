"""Training numbers pinned against ``tests/fixtures/train_parity.json``.

The other suites check run-vs-run determinism and ws=1 parity; this one
checks *values*: losses, simulated times, per-phase times and peak memory
of every trainer must equal, bit for bit, what the fixture's recording
commit produced (see ``tests/fixtures/record_train_parity.py``).
"""

import json

import pytest

from tests.fixtures.record_train_parity import FIXTURE, cells

PINNED = json.loads(FIXTURE.read_text())
CELLS = cells()


def test_fixture_covers_every_cell():
    assert sorted(PINNED) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_matches_pinned_values(name):
    assert CELLS[name]() == PINNED[name]
