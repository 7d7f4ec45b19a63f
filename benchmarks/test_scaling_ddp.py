"""repro.dist — DDP scaling vs the DataParallel baseline (Fig. 6 extended).

The paper's Fig. 6 shows single-process DataParallel barely scaling on
MNIST because serial scatter/gather and the full-batch collation eat the
per-replica compute savings.  This bench runs the modern recipe the paper
predates — DDP with per-replica loader shards, size-capped gradient
buckets all-reduced over a modelled NVLink fabric, comm overlapped with
backward, compile + prefetch on — against that baseline on the same
1 000-graph MNIST subset and the same global batch (256):

* **Scaling curve** (16 cells: GCN + GAT x pygx + dglx x 1/2/4/8
  replicas): DDP's per-epoch time must sit strictly below DataParallel's
  at every multi-replica point.
* **Parity gate** (4 cells: eager + compiled x pygx + dglx): DDP at
  ``world_size=1`` must reproduce the single-device trainer's loss
  trajectory bitwise — the wrapper is free when there is nothing to
  synchronise.

Writes ``benchmarks/results/scaling_ddp.txt`` and the machine-readable
``BENCH_scaling.json`` at the repo root (gated by
``tools/check_bench_regression.py``).
"""

from repro.bench.experiments import EXPERIMENTS
from repro.bench.scaling import scaling_cell, scaling_parity_cell
from repro.datasets import load_dataset

PROTOCOL = EXPERIMENTS["scaling"].protocol
SMOKE_BATCH = 32


def _assert_parity(cells):
    for c in cells:
        key = (c["framework"], c["mode"])
        assert c["loss_bitwise_identical"], key
        assert c["test_acc_equal"], key


def test_scaling_smoke(benchmark):
    """Fast single-cell run (CI smoke job: ``-k smoke``)."""

    def run():
        dataset = load_dataset("mnist", num_graphs=PROTOCOL["parity_graphs"])
        cell = scaling_cell("pygx", "gcn", dataset, replicas=2,
                            global_batch=SMOKE_BATCH)
        parity = scaling_parity_cell("pygx", "gcn", dataset)
        return cell, parity

    cell, parity = benchmark.pedantic(run, rounds=1, iterations=1)
    assert cell["beats_dataparallel"], (cell["dp_epoch_time"],
                                        cell["ddp_epoch_time"])
    assert cell["comm_time"] > 0
    assert cell["collectives"] > 0
    _assert_parity([parity])


def test_scaling_ddp(run_document):
    body = run_document("scaling", "scaling_ddp")
    cells, parity = body["cells"], body["parity"]

    by_key = {(c["model"], c["framework"], c["replicas"]): c for c in cells}
    for model in PROTOCOL["models"]:
        for framework in PROTOCOL["frameworks"]:
            times = {r: by_key[(model, framework, r)] for r in PROTOCOL["replicas"]}
            for replicas, c in times.items():
                # The acceptance criterion in executable form: real DDP
                # training beats the serial-scatter DataParallel estimate
                # at every point of the curve.
                assert c["beats_dataparallel"], (model, framework, replicas)
                if replicas > 1:
                    assert c["comm_time"] > 0, (model, framework, replicas)
            # DDP keeps scaling where DataParallel flattens: each doubling
            # of replicas still cuts epoch time.
            assert times[2]["ddp_epoch_time"] < times[1]["ddp_epoch_time"]
            assert times[4]["ddp_epoch_time"] < times[2]["ddp_epoch_time"]
            assert times[8]["ddp_epoch_time"] < times[4]["ddp_epoch_time"]
    _assert_parity(parity)
