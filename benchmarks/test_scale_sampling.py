"""repro.scale — million-node sampled training under a hard memory cap.

The paper's protocol stops at graphs that fit one device; this bench runs
the large-graph regime end to end on a seeded 1M-node R-MAT graph:

* **Capped training** (4 cells: GCN + SAGE x pygx + dglx): fanout-sampled
  mini-batch training with ``prefetch=True`` and ``compile=True`` on a
  device capped at 2 GB — *below* the provable full-graph training memory
  floor of every cell, so full-graph training cannot fit while sampled
  training completes with two orders of magnitude of headroom.  The cap
  is enforced by the memory pool (allocations past it raise
  ``OutOfMemoryError``), so completion is proof of fit.
* **Partitioned inference** (pygx/gcn, k=32): full-graph logits for all
  1M nodes via degree-balanced row blocks and halo exchange, one part
  resident at a time, on the same capped device.
* **Accuracy parity** (4 cells on a 10k-node smoke graph, selectable with
  ``-k smoke``): sampled training + partitioned-inference evaluation must
  land within 2% of the full-batch baseline's test accuracy — the
  Horvitz-Thompson full-graph-degree normalisation is what closes this
  gap.

Writes ``benchmarks/results/scale_sampling.txt`` and the machine-readable
``BENCH_scale.json`` at the repo root (gated by
``tools/check_bench_regression.py``).
"""

import pathlib

from repro.bench import (
    MEMORY_CAP_BYTES,
    SCALE_FRAMEWORKS,
    SCALE_MODELS,
    SCALE_PARITY_COLUMNS,
    SCALE_PART_COLUMNS,
    SCALE_TRAIN_COLUMNS,
    document_to_json,
    format_table,
    million_scale_dataset,
    scale_parity_cell,
    scale_parity_row,
    scale_partitioned_cell,
    scale_partitioned_row,
    scale_train_row,
    scale_training_cell,
    smoke_scale_dataset,
)

REPO_ROOT = pathlib.Path(__file__).parent.parent

SMOKE_NODES = 10_000
MILLION_NODES = 1_000_000
PARITY_TOLERANCE = 0.02
PARTS = 32

#: Parity cells are shared between the smoke test (which asserts them)
#: and the full bench (which writes them into BENCH_scale.json); memoised
#: so one pytest invocation never runs the protocol twice.
_parity_cache = {}


def run_parity_matrix():
    if "cells" not in _parity_cache:
        dataset = smoke_scale_dataset(SMOKE_NODES, seed=0)
        _parity_cache["cells"] = [
            scale_parity_cell(framework, model, dataset,
                              tolerance=PARITY_TOLERANCE)
            for model in SCALE_MODELS
            for framework in SCALE_FRAMEWORKS
        ]
    return _parity_cache["cells"]


def run_million_matrix():
    dataset = million_scale_dataset(MILLION_NODES, seed=0)
    training = [
        scale_training_cell(framework, model, dataset)
        for model in SCALE_MODELS
        for framework in SCALE_FRAMEWORKS
    ]
    partitioned = [scale_partitioned_cell("pygx", "gcn", dataset, k=PARTS)]
    return training, partitioned


def _assert_parity(cells):
    assert len(cells) == len(SCALE_MODELS) * len(SCALE_FRAMEWORKS)
    for c in cells:
        key = (c["model"], c["framework"])
        # Sampled training evaluated through partitioned inference must
        # match the full-batch baseline: the sampled estimator is unbiased
        # (full-graph-degree normalisation) and the halo exchange is exact.
        assert c["within_tolerance"], (key, c["gap"])
        assert c["gap"] <= PARITY_TOLERANCE, (key, c["gap"])
        # The regime only makes sense if sampling actually shrinks the
        # working set relative to the resident full graph.
        assert c["sampled_peak_mb"] < c["full_peak_mb"], key


def test_scale_smoke_parity(benchmark):
    """Fast parity-only run (CI smoke job: ``-k smoke``)."""
    cells = benchmark.pedantic(run_parity_matrix, rounds=1, iterations=1)
    _assert_parity(cells)


def test_scale_million(benchmark, publish):
    training, partitioned = benchmark.pedantic(
        run_million_matrix, rounds=1, iterations=1
    )
    parity = run_parity_matrix()

    sections = [
        format_table(
            SCALE_TRAIN_COLUMNS,
            [scale_train_row(c) for c in training],
            title=(
                f"Sampled training, {MILLION_NODES:,}-node R-MAT, "
                f"{MEMORY_CAP_BYTES / 1e9:.0f} GB memory cap "
                f"(fanout 10x10, batch 1024)"
            ),
        ),
        format_table(
            SCALE_PART_COLUMNS,
            [scale_partitioned_row(c) for c in partitioned],
            title="Partitioned full-graph inference (halo exchange, capped device)",
        ),
        format_table(
            SCALE_PARITY_COLUMNS,
            [scale_parity_row(c) for c in parity],
            title=(
                f"Sampled-vs-full accuracy parity, {SMOKE_NODES:,}-node "
                f"R-MAT (tolerance {PARITY_TOLERANCE:.0%})"
            ),
        ),
    ]
    publish("scale_sampling", "\n\n".join(sections))
    (REPO_ROOT / "BENCH_scale.json").write_text(
        document_to_json(
            "scale",
            {
                "memory_cap": MEMORY_CAP_BYTES,
                "training": training,
                "partitioned": partitioned,
                "parity": parity,
            },
        )
        + "\n"
    )

    for c in training:
        key = (c["model"], c["framework"])
        # The memory pool enforces the cap, so these booleans are the
        # acceptance criterion in executable form: sampled fits, full
        # provably does not.
        assert c["under_cap"], key
        assert c["full_graph_exceeds_cap"], (key, c["full_graph_floor"])
        # The compiled step must actually replay (structural-signature
        # bucketing over varying sampled batch shapes).
        assert c["replays"] > 0, key
        assert c["epochs_per_sec"] > 0, key
    for c in partitioned:
        assert c["under_cap"], (c["model"], c["framework"], c["peak_memory"])
        # Row blocks are cut on the edge prefix sum: no part can exceed
        # twice the mean edge load even on a power-law graph.
        assert c["edge_balance"] < 2.0, c["edge_balance"]
    _assert_parity(parity)
