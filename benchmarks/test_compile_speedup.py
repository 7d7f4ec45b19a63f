"""Compilation extension — eager vs compiled training steps.

The paper's central performance finding is that small-graph GNN training is
*launch-bound*: per-kernel host overhead, not GPU compute, sets the pace.
``repro.compile`` is the corresponding optimisation lever — capture the
step's kernel stream, run DCE/CSE/folding/fusion, and replay the fused
schedule — so this bench measures what that lever buys on the Table V
workload: GCN and GIN on ENZYMES (batch 128) under both framework packs.

Asserts the shape conclusions: every cell cuts kernel launches by >= 40%,
every compiled epoch is faster than its eager twin, and the loss curves
match eager exactly (replay re-executes the same numpy program; only the
performance accounting changes).

Writes ``benchmarks/results/compile_speedup.txt`` and the machine-readable
``BENCH_compile.json`` at the repo root.
"""

import numpy as np

from repro.bench.experiments import EXPERIMENTS

PROTOCOL = EXPERIMENTS["compile"].protocol


def test_compile_speedup(run_document):
    cells = run_document("compile", "compile_speedup")["cells"]

    for c in cells:
        key = (c["model"], c["framework"])
        # Numerics are eager-exact by construction: replay re-runs the same
        # numpy program, so any divergence means a guard silently misfired.
        assert c["parity"], key
        assert np.allclose(c["eager_losses"], c["compiled_losses"],
                           rtol=1e-6, atol=0.0), key
        # Acceptance bar: >= 40% fewer kernel launches per training step.
        assert c["launch_reduction"] >= 0.40, key
        # Fewer launches -> less host overhead -> faster epochs, and the
        # plan replays without tripping guards after its single capture.
        assert c["compiled_epoch_time"] < c["eager_epoch_time"], key
        assert c["guard_failures"] == 0, key
        assert c["replays"] > 0, key

    # The win is biggest where launch overhead dominates: elementwise-heavy
    # GIN sheds a larger launch fraction than GCN in the same framework.
    by_key = {(c["model"], c["framework"]): c for c in cells}
    for framework in PROTOCOL["frameworks"]:
        assert (by_key[("gin", framework)]["launch_reduction"]
                >= by_key[("gcn", framework)]["launch_reduction"])
