"""Every record of ``repro.bench.experiments.EXPERIMENTS`` on its own protocol.

``pytest benchmarks/ -k BENCH_`` regenerates the nine committed documents
at the repo root (what the ``bench-regression`` CI job runs; ``paper`` alone
is ~14 min, it runs every table, figure and ablation of the source paper);
``-k <name>`` runs one record.  A record passes when its body bears out
every claim it makes -- the protocol, the table and the claims all live in
the record, nothing here restates them.  The three ``smoke`` tests are the
reduced per-PR twins CI selects with ``-k smoke``.
"""

import pathlib

import pytest

from repro.bench.experiments import EXPERIMENTS, scale_parity_cells, write_document
from repro.bench.fleet import fleet_document, fleet_grid
from repro.bench.scaling import scaling_cell, scaling_parity_cell
from repro.bench.serialize import validate_document
from repro.bench.spec import SPECS
from repro.datasets import load_dataset

REPO_ROOT = pathlib.Path(__file__).parent.parent


@pytest.mark.parametrize(
    "name", [pytest.param(n, id=f"BENCH_{n}" if n in SPECS else n) for n in EXPERIMENTS])
def test_experiment(name, benchmark):
    record = EXPERIMENTS[name]
    body = benchmark.pedantic(record.run, args=(record.protocol,), rounds=1, iterations=1)
    print()
    print(record.render(body, record.protocol))
    if name in SPECS:
        write_document(name, body, REPO_ROOT / f"BENCH_{name}.json")
    assert record.failures(body) == []


def test_scale_smoke_parity(benchmark):
    """The 10k-node sampled-vs-full parity section alone."""
    record = EXPERIMENTS["scale"]
    cells = benchmark.pedantic(scale_parity_cells, args=(record.protocol,), rounds=1,
                               iterations=1)
    assert len(cells) == len(record.protocol["models"]) * len(record.protocol["frameworks"])
    assert record.failures({"parity": cells}) == []


def test_scaling_smoke(benchmark):
    """One 2-replica DDP cell plus the world_size=1 parity cell."""
    record = EXPERIMENTS["scaling"]

    def run():
        dataset = load_dataset("mnist", num_graphs=record.protocol["parity_graphs"])
        return {"cells": [scaling_cell("pygx", "gcn", dataset, replicas=2, global_batch=32)],
                "parity": [scaling_parity_cell("pygx", "gcn", dataset)]}

    assert record.failures(benchmark.pedantic(run, rounds=1, iterations=1)) == []


def test_fleet_smoke(benchmark):
    """1 vs 2 replicas on a reduced trace."""
    cells = benchmark.pedantic(
        fleet_grid, kwargs=dict(kinds=("replicas",), replicas=(1, 2), n_requests=150),
        rounds=1, iterations=1)
    document = validate_document("fleet", fleet_document(cells))
    assert EXPERIMENTS["fleet"].failures(document) == []
    one, two = cells
    assert two["completed"] > one["completed"]
