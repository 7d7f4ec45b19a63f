"""Streams + prefetch — executed loader/compute overlap vs the projection.

Section IV-D attributes low GPU utilisation to serial CPU-side batching and
notes that "further improvement can be achieved by overlapping CPU runtime
or data communication with GPU execution".  ``repro.bench.overlap`` has
long *projected* that speedup analytically from the serial phase breakdown;
this bench runs the overlap for real — ``GraphClassificationTrainer``
with ``prefetch=True`` pipelines collation and H2D copies on simulated
streams — and asserts the executed epoch time converges to the projection.

Matrix: GCN + GIN × pygx + dglx × eager + compiled (8 cells).  Asserts per
cell: losses and test accuracy bitwise-identical to serial, executed epoch
within 5% of ``OverlapProjection.overlapped_epoch``, epoch speedup > 1,
and GPU utilisation strictly higher than serial.

Writes ``benchmarks/results/overlap_pipeline.txt`` and the machine-readable
``BENCH_overlap.json`` at the repo root (gated by
``tools/check_bench_regression.py``).
"""

from repro.bench.experiments import EXPERIMENTS

PROTOCOL = EXPERIMENTS["overlap"].protocol


def test_overlap_pipeline(run_document):
    cells = run_document("overlap", "overlap_pipeline")["cells"]

    for c in cells:
        key = (c["model"], c["framework"], "compiled" if c["compiled"] else "eager")
        # Prefetching only moves where time is charged; the batches, the
        # op stream and the float order per batch are unchanged, so the
        # loss curves must match serial bit for bit.
        assert c["parity"], key
        assert c["serial_losses"] == c["overlapped_losses"], key
        # Executed overlap converges to the analytic bound: the projection
        # hides all loading behind compute; the pipeline leaks only the
        # first batch's fill, which amortises over the epoch's batches.
        assert c["within_projection"], (key, c["projection_gap"])
        assert c["projection_gap"] <= PROTOCOL["tolerance"], key
        # Hiding collation must actually save wall time and (Fig. 5's
        # lever) raise GPU utilisation — same work over less elapsed.
        assert c["speedup"] > 1.0, key
        assert c["overlapped_utilization"] > c["serial_utilization"], key

    # The paper's Fig. 1/2 contrast: DGL-style per-type collation costs
    # more than PyG's vectorised batching, so hiding it buys dglx the
    # larger speedup in every (model, mode) pair.
    by_key = {(c["model"], c["framework"], c["compiled"]): c for c in cells}
    for model in PROTOCOL["models"]:
        for compiled in (False, True):
            assert (by_key[(model, "dglx", compiled)]["speedup"]
                    >= by_key[(model, "pygx", compiled)]["speedup"])
