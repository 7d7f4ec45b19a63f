"""Command-line experiment runner.

Regenerates any of the paper's experiments from a shell, without pytest::

    python -m repro.bench.report table1
    python -m repro.bench.report table4 --models gcn gat --datasets cora --epochs 30
    python -m repro.bench.report fig1 --batch-sizes 64 128 --models gcn
    python -m repro.bench.report fig6 --num-graphs 500
    python -m repro.bench.report fig3 --json out.json
    python -m repro.bench.report serve --requests 500 --rate 1500 --json serving.json
    python -m repro.bench.report compile --models gcn gin --json BENCH_compile.json
    python -m repro.bench.report kernels --models gcn --compiled --top 12
    python -m repro.bench.report faults --fault-rates 0 0.002 0.01 --json BENCH_faults.json
    python -m repro.bench.report overlap --models gcn gin --json BENCH_overlap.json
    python -m repro.bench.report ops --json BENCH_ops.json
    python -m repro.bench.report fleet --json BENCH_fleet.json

Every subcommand prints the paper-style table (and, where it helps, an
ASCII chart); ``--json``/``--csv`` write machine-readable copies.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench import (
    FAULTS_COLUMNS,
    OVERLAP_COLUMNS,
    PHASE_ORDER,
    SERVING_COLUMNS,
    breakdown_row,
    breakdown_sweep,
    compile_cell,
    faults_cell,
    faults_row,
    format_seconds,
    format_table,
    layerwise_profile,
    multigpu_series,
    overlap_cell,
    overlap_row,
    serving_cell,
    serving_row,
    step_kernel_records,
    table4_cell,
    table5_cell,
)
from repro.bench.charts import stacked_bars
from repro.bench.serialize import (
    document_to_json,
    experiments_to_csv,
    experiments_to_json,
    servings_to_json,
)
from repro.datasets import FULL_MNIST_SIZE, compute_statistics, load_dataset
from repro.models import MODEL_NAMES
from repro.packs import FRAMEWORKS

EXPERIMENTS = (
    "table1", "table4", "table5", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
    "serve", "compile", "kernels", "faults", "overlap", "ops", "fleet",
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.report",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--models", nargs="+", default=None)
    parser.add_argument("--frameworks", nargs="+", default=list(FRAMEWORKS))
    parser.add_argument("--datasets", nargs="+", default=None)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--batch-sizes", nargs="+", type=int, default=None)
    parser.add_argument("--num-graphs", type=int, default=0)
    parser.add_argument("--folds", type=int, default=1)
    parser.add_argument("--json", default=None, help="write experiment JSON here")
    parser.add_argument("--csv", default=None, help="write summary CSV here")
    parser.add_argument("--requests", type=int, default=500, help="serve: trace length")
    parser.add_argument("--rate", type=float, default=1500.0, help="serve: arrivals/s")
    parser.add_argument("--queue-capacity", type=int, default=128)
    parser.add_argument("--max-batch-size", type=int, default=32)
    parser.add_argument(
        "--compiled", action="store_true", help="kernels: profile the compiled step"
    )
    parser.add_argument("--top", type=int, default=15, help="kernels: rows to show")
    parser.add_argument(
        "--batch-size", type=int, default=None,
        help="compile/kernels/overlap: one-batch size"
    )
    parser.add_argument(
        "--fault-rates", nargs="+", type=float, default=[0.0, 0.002, 0.01],
        help="faults: per-event OOM/kernel-fault probabilities to sweep",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0, help="faults: FaultPlan seed"
    )
    return parser


def _resolve_defaults(args) -> None:
    """Fill in the flags whose default depends on the experiment.

    They parse as ``None`` so that passing the common default explicitly
    (``overlap --batch-size 128``) is not mistaken for "unset".
    """
    experiment = args.experiment
    if args.models is None:
        args.models = {
            "serve": ["gcn"], "faults": ["gcn"], "kernels": ["gcn"],
            "compile": ["gcn", "gin"], "overlap": ["gcn", "gin"],
        }.get(experiment, list(MODEL_NAMES))
    if args.batch_sizes is None:
        args.batch_sizes = [128, 256, 512] if experiment == "fig6" else [64, 128, 256]
    if args.batch_size is None:
        args.batch_size = 16 if experiment == "overlap" else 128


def _write_document(args, experiment: str, cells: List) -> None:
    path = args.json or f"BENCH_{experiment}.json"
    with open(path, "w") as fh:
        fh.write(document_to_json(experiment, {"cells": cells}))
    print(f"wrote {path}")


def _write_outputs(args, results: List) -> None:
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(experiments_to_json(results, include_runs=True))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(experiments_to_csv(results))


def _run_table1(args) -> None:
    rows = []
    for name in args.datasets or ["cora", "pubmed", "enzymes", "mnist", "dd"]:
        num_graphs = args.num_graphs or (1500 if name == "mnist" else 0)
        ds = load_dataset(name, num_graphs=num_graphs)
        reported = FULL_MNIST_SIZE if name == "mnist" else 0
        rows.append(compute_statistics(ds, reported_num_graphs=reported).row())
    print(
        format_table(
            ["Dataset", "#Graph", "#Nodes(Avg)", "#Edges(Avg)", "#Feature", "#Classes"],
            rows,
            title="Table I: dataset statistics",
        )
    )


def _run_table4(args) -> None:
    results = []
    for dataset in args.datasets or ["cora", "pubmed"]:
        for model in args.models:
            for framework in args.frameworks:
                results.append(
                    table4_cell(framework, model, dataset, max_epochs=args.epochs, seeds=(0,))
                )
    rows = [
        [r.dataset, r.model, r.framework, f"{r.epoch_time * 1e3:.2f}ms",
         format_seconds(r.total_time), f"{r.acc_mean * 100:.1f}"]
        for r in results
    ]
    print(format_table(["dataset", "model", "fw", "epoch", "total", "acc"], rows,
                       title=f"Table IV ({args.epochs} epochs)"))
    _write_outputs(args, results)


def _run_table5(args) -> None:
    results = []
    for dataset in args.datasets or ["enzymes"]:
        for model in args.models:
            for framework in args.frameworks:
                results.append(
                    table5_cell(
                        framework,
                        model,
                        dataset,
                        num_graphs=args.num_graphs,
                        max_epochs=args.epochs,
                        max_folds=args.folds,
                    )
                )
    rows = [
        [r.dataset, r.model, r.framework, f"{r.epoch_time * 1e3:.0f}ms",
         format_seconds(r.total_time), f"{r.acc_mean * 100:.1f}+-{r.acc_std * 100:.1f}"]
        for r in results
    ]
    print(format_table(["dataset", "model", "fw", "epoch", "total", "acc"], rows,
                       title=f"Table V ({args.folds} folds, {args.epochs} epoch cap)"))
    _write_outputs(args, results)


def _run_breakdown(args, dataset: str) -> None:
    grid = breakdown_sweep(
        dataset,
        args.batch_sizes,
        models=args.models,
        frameworks=args.frameworks,
        num_graphs=args.num_graphs,
        n_epochs=1,
    )
    bars = {}
    for (framework, model, batch_size), run in sorted(grid.items()):
        row = breakdown_row(run)
        bars[f"{model}/{framework}/b{batch_size}"] = {k: v * 1e3 for k, v in row.items()}
    print(
        stacked_bars(
            bars,
            segments=list(PHASE_ORDER),
            unit="ms",
            title=f"Execution-time breakdown per epoch, {dataset}",
        )
    )


def _run_resource(args, observable: str) -> None:
    """Fig. 4 (memory) / Fig. 5 (utilisation) over the ENZYMES grid."""
    grid = breakdown_sweep(
        "enzymes",
        args.batch_sizes,
        models=args.models,
        frameworks=args.frameworks,
        num_graphs=args.num_graphs,
        n_epochs=1,
    )
    rows = []
    for (framework, model, batch_size), run in sorted(grid.items()):
        value = (
            f"{run.peak_memory / 1e6:.0f}MB"
            if observable == "memory"
            else f"{run.gpu_utilization * 100:.1f}%"
        )
        rows.append([model, framework, str(batch_size), value])
    title = "Fig. 4: peak memory" if observable == "memory" else "Fig. 5: GPU utilisation"
    print(format_table(["model", "fw", "batch", observable], rows, title=title))


def _run_fig3(args) -> None:
    scopes = ["conv1", "conv2", "conv3", "conv4", "pooling", "classifier", "other"]
    rows = []
    for model in args.models:
        for framework in args.frameworks:
            profile = layerwise_profile(
                framework, model, "enzymes", batch_size=128, num_graphs=args.num_graphs
            )
            rows.append([model, framework] + [f"{profile[s] * 1e6:.0f}" for s in scopes])
    print(format_table(["model", "fw"] + [f"{s}(us)" for s in scopes], rows,
                       title="Fig. 3: layer execution time, one ENZYMES batch"))


def _run_fig6(args) -> None:
    series = multigpu_series(
        models=[m for m in args.models if m in ("gcn", "gat")] or ["gcn", "gat"],
        frameworks=args.frameworks,
        batch_sizes=args.batch_sizes,
        num_graphs=args.num_graphs or 1000,
        max_batches=2,
    )
    rows = []
    keys = sorted({(m, f, b) for (f, m, b, _) in series})
    for model, framework, batch in keys:
        times = [series[(framework, model, batch, n)] for n in (1, 2, 4, 8)]
        rows.append([model, framework, str(batch)] + [f"{t * 1e3:.0f}" for t in times])
    print(format_table(["model", "fw", "batch", "1gpu", "2gpu", "4gpu", "8gpu"], rows,
                       title="Fig. 6: epoch time (ms) vs GPU count, MNIST"))


def _run_serve(args) -> None:
    from repro.serve import poisson_trace

    results = []
    rows = []
    for dataset in args.datasets or ["enzymes"]:
        for model in args.models:
            for framework in args.frameworks:
                trace = poisson_trace(args.requests, rate=args.rate, rng=0)
                for max_batch in (1, args.max_batch_size):
                    result = serving_cell(
                        framework,
                        model,
                        dataset,
                        tuple(trace),
                        max_batch_size=max_batch,
                        queue_capacity=args.queue_capacity,
                        num_graphs=args.num_graphs,
                    )
                    results.append(result)
                    rows.append([f"b{max_batch}"] + serving_row(result))
    print(
        format_table(
            ["policy"] + SERVING_COLUMNS,
            rows,
            title=(
                f"Serving: {args.requests}-request Poisson trace @ {args.rate:.0f}/s "
                "(b1 = no batching)"
            ),
        )
    )
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(servings_to_json(results))


def _run_compile(args) -> int:
    """Eager vs compiled training: launches, epoch time, numerical parity."""
    cells = []
    for dataset in args.datasets or ["enzymes"]:
        for model in args.models:
            for framework in args.frameworks:
                cells.append(
                    compile_cell(
                        framework,
                        model,
                        dataset,
                        batch_size=args.batch_size,
                        num_graphs=args.num_graphs,
                        n_epochs=2,
                    )
                )
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
    print(
        format_table(
            ["model", "fw", "eager", "compiled", "saved", "eager(ms)",
             "compiled(ms)", "speedup", "numerics"],
            rows,
            title=f"repro.compile: kernel launches per step + epoch time "
                  f"(batch {args.batch_size})",
        )
    )
    _write_document(args, "compile", cells)
    if not all(c["parity"] for c in cells):
        print("ERROR: compiled numerics diverged from eager", file=sys.stderr)
        return 1
    return 0


def _run_overlap(args) -> int:
    """Executed prefetch pipelining vs the analytic overlap projection."""
    cells = []
    for dataset in args.datasets or ["enzymes"]:
        for model in args.models:
            for framework in args.frameworks:
                for compiled in (False, True):
                    cells.append(
                        overlap_cell(
                            framework,
                            model,
                            dataset,
                            batch_size=args.batch_size,
                            num_graphs=args.num_graphs,
                            n_epochs=2,
                            compiled=compiled,
                        )
                    )
    print(
        format_table(
            OVERLAP_COLUMNS,
            [overlap_row(c) for c in cells],
            title="Streams + prefetch: executed overlap vs Section IV-D projection",
        )
    )
    _write_document(args, "overlap", cells)
    if not all(c["parity"] for c in cells):
        print("ERROR: prefetched numerics diverged from serial", file=sys.stderr)
        return 1
    if not all(c["within_projection"] for c in cells):
        print("ERROR: executed overlap missed the projection bound", file=sys.stderr)
        return 1
    return 0


def _run_faults(args) -> None:
    """Goodput / retries / p99 as scheduled fault rates sweep upward."""
    from repro.serve import poisson_trace

    cells = []
    rows = []
    for dataset in args.datasets or ["enzymes"]:
        for model in args.models:
            for framework in args.frameworks:
                trace = poisson_trace(args.requests, rate=args.rate, rng=0)
                for rate in args.fault_rates:
                    cell = faults_cell(
                        framework,
                        model,
                        dataset,
                        tuple(trace),
                        fault_rate=rate,
                        fault_seed=args.fault_seed,
                        max_batch_size=args.max_batch_size,
                        queue_capacity=args.queue_capacity,
                        num_graphs=args.num_graphs,
                    )
                    cells.append(cell)
                    rows.append(faults_row(cell))
    print(
        format_table(
            FAULTS_COLUMNS,
            rows,
            title=(
                f"repro.faults: {args.requests}-request Poisson trace @ "
                f"{args.rate:.0f}/s under injected faults (seed {args.fault_seed})"
            ),
        )
    )
    _write_document(args, "faults", cells)


def _run_kernels(args) -> None:
    """Top-kernel table over one profiled training step (satellite of Fig. 3)."""
    from repro.device import kernel_stats

    for dataset in args.datasets or ["enzymes"]:
        for model in args.models:
            for framework in args.frameworks:
                records = step_kernel_records(
                    framework,
                    model,
                    dataset,
                    batch_size=args.batch_size,
                    num_graphs=args.num_graphs,
                    compiled=args.compiled,
                )
                step_time = sum(r.duration for r in records) or 1.0
                stats = kernel_stats(records)
                rows = [
                    [
                        s.name,
                        str(s.launches),
                        f"{s.total_time * 1e6:.1f}",
                        f"{s.mean_time * 1e6:.2f}",
                        f"{s.total_time / step_time * 100:.1f}%",
                    ]
                    for s in stats[: args.top]
                ]
                mode = "compiled" if args.compiled else "eager"
                print(
                    format_table(
                        ["kernel", "launches", "total(us)", "mean(us)", "% step"],
                        rows,
                        title=f"Top kernels: {model}/{framework}/{dataset}, one {mode} "
                              f"step ({len(records)} launches)",
                    )
                )


def _run_ops(args) -> int:
    """Operation-level roofline attribution (full CLI in repro.bench.ops)."""
    from repro.bench import ops as ops_bench

    argv = ["--report"]
    if args.json:
        argv += ["--out", args.json]
    return ops_bench.main(argv)


def _run_fleet(args) -> int:
    """Multi-replica fleet serving (full CLI in repro.bench.fleet)."""
    from repro.bench import fleet as fleet_bench

    argv = ["--report"]
    if args.json:
        argv += ["--out", args.json]
    return fleet_bench.main(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    _resolve_defaults(args)
    if args.experiment == "table1":
        _run_table1(args)
    elif args.experiment == "table4":
        _run_table4(args)
    elif args.experiment == "table5":
        _run_table5(args)
    elif args.experiment == "fig1":
        _run_breakdown(args, "enzymes")
    elif args.experiment == "fig2":
        _run_breakdown(args, "dd")
    elif args.experiment == "fig3":
        _run_fig3(args)
    elif args.experiment == "fig4":
        _run_resource(args, "memory")
    elif args.experiment == "fig5":
        _run_resource(args, "utilisation")
    elif args.experiment == "fig6":
        _run_fig6(args)
    elif args.experiment == "serve":
        _run_serve(args)
    elif args.experiment == "compile":
        return _run_compile(args)
    elif args.experiment == "kernels":
        _run_kernels(args)
    elif args.experiment == "faults":
        _run_faults(args)
    elif args.experiment == "overlap":
        return _run_overlap(args)
    elif args.experiment == "ops":
        return _run_ops(args)
    elif args.experiment == "fleet":
        return _run_fleet(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
