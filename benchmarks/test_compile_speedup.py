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

import pathlib

import numpy as np

from repro.bench import compile_cell, document_to_json, format_table

REPO_ROOT = pathlib.Path(__file__).parent.parent

MODELS = ("gcn", "gin")
FRAMEWORKS = ("pygx", "dglx")
BATCH_SIZE = 128
NUM_GRAPHS = 256
N_EPOCHS = 2


def run_compile_matrix():
    return [
        compile_cell(framework, model, "enzymes", batch_size=BATCH_SIZE,
                     num_graphs=NUM_GRAPHS, n_epochs=N_EPOCHS)
        for model in MODELS
        for framework in FRAMEWORKS
    ]


def test_compile_speedup(benchmark, publish):
    cells = benchmark.pedantic(run_compile_matrix, rounds=1, iterations=1)

    rows = [
        [
            c["model"],
            c["framework"],
            str(c["eager_launches_per_step"]),
            str(c["compiled_launches_per_step"]),
            f"{c['launch_reduction'] * 100:.0f}%",
            f"{c['eager_epoch_time'] * 1e3:.2f}",
            f"{c['compiled_epoch_time'] * 1e3:.2f}",
            f"{c['speedup']:.2f}x",
            "exact" if c["parity"] else "DIVERGED",
        ]
        for c in cells
    ]
    text = format_table(
        ["model", "fw", "eager", "compiled", "saved", "eager(ms)",
         "compiled(ms)", "speedup", "numerics"],
        rows,
        title=(
            f"Compiled vs eager training step, ENZYMES batch {BATCH_SIZE} "
            f"({N_EPOCHS} epochs, {NUM_GRAPHS} graphs)"
        ),
    )
    publish("compile_speedup", text)
    (REPO_ROOT / "BENCH_compile.json").write_text(
        document_to_json("compile", {"cells": cells}) + "\n"
    )

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
    for framework in FRAMEWORKS:
        assert (by_key[("gin", framework)]["launch_reduction"]
                >= by_key[("gcn", framework)]["launch_reduction"])
