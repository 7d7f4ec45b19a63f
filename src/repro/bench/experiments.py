"""repro.bench.experiments — one record per experiment this repo can run.

``EXPERIMENTS`` maps a name to a frozen :class:`Experiment`: the
``protocol`` it runs under (a plain mapping of parameters), ``run(protocol)
-> body``, ``render(body, protocol) -> str`` and ``failures(body)`` (why a
finished run must still exit non-zero: diverged parity, a missed
projection bound, silently lost requests).  The ``report`` CLI, the
``benchmarks/`` document writers and CI all walk this table, so the
protocol behind a result is written down exactly once.

A record named after a :data:`repro.bench.spec.SPECS` key produces the
committed ``BENCH_<name>.json``; its ``protocol`` is exactly the
parameters of that document, so a bare ``python -m repro.bench.report
<name>`` regenerates it, through :func:`write_document` — the one writer.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.bench import fleet, ops, runner, scale, scaling
from repro.bench.charts import stacked_bars
from repro.bench.serialize import (
    document_to_json,
    experiments_to_csv,
    experiments_to_json,
    servings_to_json,
)
from repro.bench.tables import format_seconds, format_table, render_table
from repro.datasets import FULL_MNIST_SIZE, compute_statistics, load_dataset
from repro.device import kernel_stats
from repro.fleet import POLICY_NAMES
from repro.models import MODEL_NAMES
from repro.packs import FRAMEWORKS
from repro.serve import bursty_trace, poisson_trace


@dataclass(frozen=True)
class Experiment:
    """How one table, figure or ``BENCH_*.json`` document is produced."""

    name: str
    protocol: Mapping[str, Any]
    run: Callable[[Mapping[str, Any]], Any]
    render: Callable[[Any, Mapping[str, Any]], str]
    failures: Callable[[Any], List[str]] = lambda body: []
    #: Serialisers behind ``--json`` / ``--csv``; ``None`` = not offered.
    to_json: Optional[Callable[[Any], str]] = None
    to_csv: Optional[Callable[[Any], str]] = None


def _grid(p) -> List[tuple]:
    """``(dataset, model, framework)`` in the order every table lists them."""
    return [(d, m, f) for d in p["datasets"] for m in p["models"] for f in p["frameworks"]]


def _names(values) -> str:
    return "+".join(values).upper()


def _failing(cells, key: str, message: str, label: str = "{model}/{framework}") -> List[str]:
    """One failure line per cell whose boolean ``key`` is false."""
    return [f"{message}: {label.format(**c)}" for c in cells if not c[key]]


# ----------------------------------------------------------------------
# Tables I, IV, V
# ----------------------------------------------------------------------
def _run_table1(p):
    rows = []
    for name in p["datasets"]:
        dataset = load_dataset(name, num_graphs=p["num_graphs"] or (1500 if name == "mnist" else 0))
        reported = FULL_MNIST_SIZE if name == "mnist" else 0
        rows.append(compute_statistics(dataset, reported_num_graphs=reported).row())
    return rows


def _render_table1(rows, p):
    headers = ["Dataset", "#Graph", "#Nodes(Avg)", "#Edges(Avg)", "#Feature", "#Classes"]
    return format_table(headers, rows, title="Table I: dataset statistics")


def _result_table(epoch_digits: int, acc: Callable[[Any], str]):
    return [
        ("dataset", lambda r: r.dataset),
        ("model", lambda r: r.model),
        ("fw", lambda r: r.framework),
        ("epoch", lambda r: f"{r.epoch_time * 1e3:.{epoch_digits}f}ms"),
        ("total", lambda r: format_seconds(r.total_time)),
        ("acc", acc),
    ]


TABLE4 = _result_table(2, lambda r: f"{r.acc_mean * 100:.1f}")
TABLE5 = _result_table(0, lambda r: f"{r.acc_mean * 100:.1f}+-{r.acc_std * 100:.1f}")
_RESULTS_OUT = {"to_json": partial(experiments_to_json, include_runs=True),
                "to_csv": experiments_to_csv}


def _run_table4(p):
    return [runner.table4_cell(f, m, d, max_epochs=p["epochs"], seeds=(0,))
            for d, m, f in _grid(p)]


def _run_table5(p):
    return [runner.table5_cell(f, m, d, num_graphs=p["num_graphs"], max_epochs=p["epochs"],
                               max_folds=p["folds"])
            for d, m, f in _grid(p)]


# ----------------------------------------------------------------------
# Fig. 1/2 (breakdown), 4 (memory), 5 (utilisation): one sweep, four views
# ----------------------------------------------------------------------
def _run_sweep(p):
    return runner.breakdown_sweep(
        p["dataset"], p["batch_sizes"], models=p["models"], frameworks=p["frameworks"],
        num_graphs=p["num_graphs"], n_epochs=1,
    )


def _render_breakdown(grid, p):
    bars = {
        f"{model}/{framework}/b{batch}":
            {k: v * 1e3 for k, v in runner.breakdown_row(run).items()}
        for (framework, model, batch), run in sorted(grid.items())
    }
    return stacked_bars(bars, segments=list(runner.PHASE_ORDER), unit="ms",
                        title=f"Execution-time breakdown per epoch, {p['dataset']}")


def _render_resource(observable: str, fmt: Callable[[Any], str], title: str):
    table = [
        ("model", lambda kv: kv[0][1]),
        ("fw", lambda kv: kv[0][0]),
        ("batch", lambda kv: kv[0][2]),
        (observable, lambda kv: fmt(kv[1])),
    ]
    return lambda grid, p: render_table(table, sorted(grid.items()), title=title)


# ----------------------------------------------------------------------
# Fig. 3 (layers), Fig. 6 (multi-GPU), top kernels
# ----------------------------------------------------------------------
FIG3_TABLE = [("model", lambda r: r[0]), ("fw", lambda r: r[1])] + [
    (f"{scope}(us)", lambda r, scope=scope: f"{r[2][scope] * 1e6:.0f}")
    for scope in ("conv1", "conv2", "conv3", "conv4", "pooling", "classifier", "other")
]


def _run_fig3(p):
    return [(m, f, runner.layerwise_profile(f, m, "enzymes", batch_size=p["batch_size"],
                                            num_graphs=p["num_graphs"]))
            for m in p["models"] for f in p["frameworks"]]


def _run_fig6(p):
    return runner.multigpu_series(
        models=p["models"], frameworks=p["frameworks"], batch_sizes=p["batch_sizes"],
        num_graphs=p["num_graphs"], max_batches=2,
    )


def _render_fig6(series, p):
    table = [("model", lambda k: k[0]), ("fw", lambda k: k[1]), ("batch", lambda k: k[2])]
    table += [
        (f"{n}gpu", lambda k, n=n: f"{series[(k[1], k[0], k[2], n)] * 1e3:.0f}")
        for n in (1, 2, 4, 8)
    ]
    return render_table(table, sorted({(m, f, b) for (f, m, b, _) in series}),
                        title="Fig. 6: epoch time (ms) vs GPU count, MNIST")


def _run_kernels(p):
    return [((d, m, f), runner.step_kernel_records(f, m, d, batch_size=p["batch_size"],
                                                   num_graphs=p["num_graphs"],
                                                   compiled=p["compiled"]))
            for d, m, f in _grid(p)]


def _render_kernels(body, p):
    mode = "compiled" if p["compiled"] else "eager"
    tables = []
    for (dataset, model, framework), records in body:
        step_time = sum(r.duration for r in records) or 1.0
        table = [
            ("kernel", lambda s: s.name),
            ("launches", lambda s: s.launches),
            ("total(us)", lambda s: f"{s.total_time * 1e6:.1f}"),
            ("mean(us)", lambda s: f"{s.mean_time * 1e6:.2f}"),
            ("% step", lambda s, t=step_time: f"{s.total_time / t * 100:.1f}%"),
        ]
        tables.append(render_table(
            table, kernel_stats(records)[: p["top"]],
            title=f"Top kernels: {model}/{framework}/{dataset}, one {mode} step "
                  f"({len(records)} launches)",
        ))
    return "\n".join(tables)


# ----------------------------------------------------------------------
# The eight gated documents
# ----------------------------------------------------------------------
def _run_serving(p):
    trace = tuple(poisson_trace(p["requests"], rate=p["rate"], rng=0))
    # BENCH_serving.json is gated by position: entries go by framework name.
    results = [
        runner.serving_cell(f, m, d, trace, max_batch_size=max_batch,
                            queue_capacity=p["queue_capacity"], num_graphs=p["num_graphs"])
        for d, m, f in sorted(_grid(p), key=lambda cell: cell[2])
        for max_batch in (1, p["max_batch_size"])
    ]
    # Over-capacity bursts against a small bounded queue: shedding, not
    # unbounded queue growth, is the designed failure mode.
    d, m, f = _grid(p)[0]
    burst = tuple(bursty_trace(300, burst_size=150, burst_rate=20000.0, idle_gap=0.05, rng=1))
    results.append(runner.serving_cell(
        f, m, d, burst, max_batch_size=8, max_nodes=1024, queue_capacity=32, deadline=0.25,
        num_graphs=p["num_graphs"],
    ))
    return results


def _render_serving(results, p):
    labels = [f"b{b}" for _ in _grid(p) for b in (1, p["max_batch_size"])] + ["burst/b8"]
    table = [("policy", lambda row: row[0])] + [
        (header, lambda row, fmt=fmt: fmt(row[1])) for header, fmt in runner.SERVING_TABLE
    ]
    return render_table(
        table, list(zip(labels, results)),
        title=f"Serving: {p['requests']}-request Poisson @ {p['rate']:.0f}/s, "
              f"{_names(p['models'])}/{_names(p['datasets'])} "
              "(b1 = unbatched; burst = over-capacity trace, queue=32)",
    )


def _run_compile(p):
    return {"cells": [
        runner.compile_cell(f, m, d, batch_size=p["batch_size"], num_graphs=p["num_graphs"],
                            n_epochs=p["epochs"])
        for d, m, f in _grid(p)
    ]}


def _render_compile(body, p):
    return render_table(
        runner.COMPILE_TABLE, body["cells"],
        title=f"Compiled vs eager training step, {_names(p['datasets'])} batch "
              f"{p['batch_size']} ({p['epochs']} epochs, {p['num_graphs'] or 'all'} graphs)",
    )


def _run_overlap(p):
    return {"cells": [
        runner.overlap_cell(f, m, d, batch_size=p["batch_size"], num_graphs=p["num_graphs"],
                            n_epochs=p["epochs"], compiled=compiled, tolerance=p["tolerance"])
        for d, m, f in _grid(p)
        for compiled in (False, True)
    ]}


def _render_overlap(body, p):
    return render_table(
        runner.OVERLAP_TABLE, body["cells"],
        title=f"Executed prefetch overlap vs projection, {_names(p['datasets'])} batch "
              f"{p['batch_size']} ({p['epochs']} epochs)",
    )


def _overlap_failures(body):
    label = "{model}/{framework} (compiled={compiled})"
    return _failing(
        body["cells"], "parity", "prefetched numerics diverged from serial", label
    ) + _failing(
        body["cells"], "within_projection", "executed overlap missed the projection bound", label
    )


def _run_faults(p):
    trace = tuple(poisson_trace(p["requests"], rate=p["rate"], rng=0))
    return {"cells": [
        runner.faults_cell(f, m, d, trace, fault_rate=rate, fault_seed=p["fault_seed"],
                           max_batch_size=p["max_batch_size"],
                           queue_capacity=p["queue_capacity"], num_graphs=p["num_graphs"])
        for d, m, f in _grid(p)
        for rate in p["fault_rates"]
    ]}


def _render_faults(body, p):
    return render_table(
        runner.FAULTS_TABLE, body["cells"],
        title=f"repro.faults: {p['requests']}-request Poisson trace @ {p['rate']:.0f}/s "
              f"under injected faults (seed {p['fault_seed']})",
    )


def _run_ops(p):
    return ops.ops_document(
        ops.ops_grid(p["shapes"], p["ops"], p["frameworks"], p["modes"], p["precisions"])
    )


def _run_fleet(p):
    return fleet.fleet_document(fleet.fleet_grid(
        p["kinds"], p["replicas"], p["policies"], n_requests=p["requests"], scale=p["scale"],
        seed=p["seed"], chrome_trace=p["chrome_trace"],
    ))


def scale_parity_cells(p) -> List[Dict]:
    """The ``scale`` record's sampled-vs-full parity section on its own (the CI smoke job)."""
    dataset = scale.smoke_scale_dataset(p["smoke_nodes"], seed=0)
    return [scale.scale_parity_cell(f, m, dataset, tolerance=p["tolerance"])
            for m in p["models"] for f in p["frameworks"]]


def _run_scale(p):
    dataset = scale.million_scale_dataset(p["n_nodes"], seed=0)
    return {
        "memory_cap": p["memory_cap"],
        "training": [scale.scale_training_cell(f, m, dataset, memory_bytes=p["memory_cap"])
                     for m in p["models"] for f in p["frameworks"]],
        "partitioned": [scale.scale_partitioned_cell(
            p["frameworks"][0], p["models"][0], dataset, k=p["parts"],
            memory_bytes=p["memory_cap"],
        )],
        "parity": scale_parity_cells(p),
    }


def _render_scale(body, p):
    return "\n\n".join([
        render_table(
            scale.SCALE_TRAIN_TABLE, body["training"],
            title=f"Sampled training, {p['n_nodes']:,}-node R-MAT, "
                  f"{p['memory_cap'] / 1e9:.0f} GB memory cap (fanout 10x10, batch 1024)",
        ),
        render_table(
            scale.SCALE_PART_TABLE, body["partitioned"],
            title="Partitioned full-graph inference (halo exchange, capped device)",
        ),
        render_table(
            scale.SCALE_PARITY_TABLE, body["parity"],
            title=f"Sampled-vs-full accuracy parity, {p['smoke_nodes']:,}-node "
                  f"R-MAT (tolerance {p['tolerance']:.0%})",
        ),
    ])


def _run_scaling(p):
    parity_set = load_dataset("mnist", num_graphs=p["parity_graphs"])
    return {
        "num_graphs": p["num_graphs"],
        "global_batch": p["global_batch"],
        "cells": scaling.scaling_series(
            load_dataset("mnist", num_graphs=p["num_graphs"]), p["frameworks"], p["models"],
            p["replicas"], p["global_batch"],
        ),
        "parity": [scaling.scaling_parity_cell(f, p["models"][0], parity_set, compile=compiled)
                   for f in p["frameworks"] for compiled in (False, True)],
    }


def _render_scaling(body, p):
    return "\n\n".join([
        render_table(
            scaling.SCALING_TABLE, body["cells"],
            title=f"DDP vs DataParallel epoch time, MNIST ({p['num_graphs']} graphs, "
                  f"global batch {p['global_batch']}, NVLink fabric)",
        ),
        render_table(
            scaling.SCALING_PARITY_TABLE, body["parity"],
            title="world_size=1 parity gate (DDP vs single-device, bitwise)",
        ),
    ])


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
_PACKS = {"models": MODEL_NAMES, "frameworks": FRAMEWORKS}
_SWEEP = {**_PACKS, "batch_sizes": (64, 128, 256), "num_graphs": 0}
_TRAIN = {"datasets": ("enzymes",), "models": ("gcn", "gin"), "frameworks": FRAMEWORKS}
_SERVE = {"datasets": ("enzymes",), "models": ("gcn",), "frameworks": FRAMEWORKS,
          "queue_capacity": 128, "max_batch_size": 32}

EXPERIMENTS: Dict[str, Experiment] = {e.name: e for e in (
    Experiment("table1", {"datasets": ("cora", "pubmed", "enzymes", "mnist", "dd"),
                          "num_graphs": 0}, _run_table1, _render_table1),
    Experiment(
        "table4", {"datasets": ("cora", "pubmed"), **_PACKS, "epochs": 20}, _run_table4,
        lambda results, p: render_table(TABLE4, results, title=f"Table IV ({p['epochs']} epochs)"),
        **_RESULTS_OUT,
    ),
    Experiment(
        "table5",
        {"datasets": ("enzymes",), **_PACKS, "num_graphs": 0, "epochs": 20, "folds": 1},
        _run_table5,
        lambda results, p: render_table(
            TABLE5, results, title=f"Table V ({p['folds']} folds, {p['epochs']} epoch cap)"),
        **_RESULTS_OUT,
    ),
    Experiment("fig1", {"dataset": "enzymes", **_SWEEP}, _run_sweep, _render_breakdown),
    Experiment("fig2", {"dataset": "dd", **_SWEEP}, _run_sweep, _render_breakdown),
    Experiment(
        "fig3", {**_PACKS, "batch_size": 128, "num_graphs": 0}, _run_fig3,
        lambda rows, p: render_table(
            FIG3_TABLE, rows, title="Fig. 3: layer execution time, one ENZYMES batch"),
    ),
    Experiment("fig4", {"dataset": "enzymes", **_SWEEP}, _run_sweep, _render_resource(
        "memory", lambda run: f"{run.peak_memory / 1e6:.0f}MB", "Fig. 4: peak memory")),
    Experiment("fig5", {"dataset": "enzymes", **_SWEEP}, _run_sweep, _render_resource(
        "utilisation", lambda run: f"{run.gpu_utilization * 100:.1f}%", "Fig. 5: GPU utilisation")),
    Experiment(
        "fig6",
        {"models": ("gcn", "gat"), "frameworks": FRAMEWORKS, "batch_sizes": (128, 256, 512),
         "num_graphs": 1000},
        _run_fig6, _render_fig6,
    ),
    Experiment(
        "serving", {**_SERVE, "requests": 1000, "rate": 2000.0, "num_graphs": 0},
        _run_serving, _render_serving,
        lambda results: [f"silently lost requests: {r.model}/{r.framework}"
                         for r in results if r.resolved != r.n_requests],
        to_json=servings_to_json,
    ),
    Experiment(
        "compile", {**_TRAIN, "batch_size": 128, "num_graphs": 256, "epochs": 2},
        _run_compile, _render_compile,
        lambda body: _failing(body["cells"], "parity", "compiled numerics diverged from eager"),
        to_json=partial(document_to_json, "compile"),
    ),
    Experiment(
        "kernels",
        {"datasets": ("enzymes",), "models": ("gcn",), "frameworks": FRAMEWORKS,
         "batch_size": 128, "num_graphs": 0, "compiled": False, "top": 15},
        _run_kernels, _render_kernels,
    ),
    Experiment(
        "faults",
        {**_SERVE, "requests": 300, "rate": 1500.0, "num_graphs": 120,
         "fault_rates": (0.0, 0.002, 0.01), "fault_seed": 0},
        _run_faults, _render_faults,
        lambda body: [f"silently lost requests: {c['model']}/{c['framework']} "
                      f"at fault rate {c['fault_rate']}"
                      for c in body["cells"] if c["resolved"] != c["n_requests"]],
        to_json=partial(document_to_json, "faults"),
    ),
    Experiment(
        "overlap",
        {**_TRAIN, "batch_size": 16, "num_graphs": 0, "epochs": 2, "tolerance": 0.05},
        _run_overlap, _render_overlap,
        _overlap_failures,
        to_json=partial(document_to_json, "overlap"),
    ),
    Experiment(
        "ops",
        # precisions=None: fp32 everywhere plus fp16 on the eager cells.
        {"shapes": tuple(sorted(ops.SHAPES)), "ops": ops.OPS, "frameworks": FRAMEWORKS,
         "modes": ops.MODES, "precisions": None},
        _run_ops, lambda doc, p: ops.ops_report(doc["cells"]),
        to_json=partial(document_to_json, "ops"),
    ),
    Experiment(
        "fleet",
        {"workload": fleet.fleet_document(())["workload"], "kinds": fleet.FLEET_KINDS,
         "replicas": fleet.REPLICA_SWEEP, "policies": POLICY_NAMES,
         "requests": fleet.TRACE_REQUESTS, "scale": fleet.TRACE_SCALE, "seed": 0,
         "chrome_trace": None},
        _run_fleet, lambda doc, p: fleet.fleet_report(doc["cells"]),
        lambda doc: _failing(doc["cells"], "no_silent_loss", "silently lost requests",
                             label="{kind}/{policy}/{replicas}"),
        to_json=partial(document_to_json, "fleet"),
    ),
    Experiment(
        "scale",
        {"models": scale.SCALE_MODELS, "frameworks": FRAMEWORKS, "n_nodes": 1_000_000,
         "memory_cap": scale.MEMORY_CAP_BYTES, "parts": 32, "smoke_nodes": 10_000,
         "tolerance": 0.02},
        _run_scale, _render_scale,
        lambda body: _failing(body["parity"], "within_tolerance",
                              "sampled accuracy diverged from the full-batch baseline"),
        to_json=partial(document_to_json, "scale"),
    ),
    Experiment(
        "scaling",
        {"models": scaling.SCALING_MODELS, "frameworks": FRAMEWORKS,
         "replicas": scaling.SCALING_REPLICAS, "num_graphs": 1000, "global_batch": 256,
         "parity_graphs": 128},
        _run_scaling, _render_scaling,
        lambda body: _failing(body["parity"], "loss_bitwise_identical",
                              "world_size=1 DDP diverged from the single-device trainer",
                              label="{framework}/{mode}"),
        to_json=partial(document_to_json, "scaling"),
    ),
)}


def write_document(name: str, body, path) -> None:
    """Serialise ``body`` as experiment ``name``'s JSON, newline-terminated.

    The one ``BENCH_*.json`` writer: a gated record's serialiser validates
    the document against :mod:`repro.bench.spec` on the way out.
    """
    pathlib.Path(path).write_text(EXPERIMENTS[name].to_json(body) + "\n")
