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

from repro.bench.experiments import EXPERIMENTS, scale_parity_cells

PROTOCOL = EXPERIMENTS["scale"].protocol


def _assert_parity(cells):
    assert len(cells) == len(PROTOCOL["models"]) * len(PROTOCOL["frameworks"])
    for c in cells:
        key = (c["model"], c["framework"])
        # Sampled training evaluated through partitioned inference must
        # match the full-batch baseline: the sampled estimator is unbiased
        # (full-graph-degree normalisation) and the halo exchange is exact.
        assert c["within_tolerance"], (key, c["gap"])
        assert c["gap"] <= PROTOCOL["tolerance"], (key, c["gap"])
        # The regime only makes sense if sampling actually shrinks the
        # working set relative to the resident full graph.
        assert c["sampled_peak_mb"] < c["full_peak_mb"], key


def test_scale_smoke_parity(benchmark):
    """Fast parity-only run (CI smoke job: ``-k smoke``)."""
    cells = benchmark.pedantic(scale_parity_cells, args=(PROTOCOL,), rounds=1, iterations=1)
    _assert_parity(cells)


def test_scale_million(run_document):
    body = run_document("scale", "scale_sampling")
    training, partitioned, parity = body["training"], body["partitioned"], body["parity"]

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
