"""repro.bench.experiments — one record per experiment this repo can run.

``EXPERIMENTS`` maps a name to a frozen :class:`Experiment`: the
``protocol`` it runs under (a plain mapping holding *every* run-shaping
parameter), ``run(protocol) -> body`` (JSON-able cells), ``render(body,
protocol) -> str`` and ``claims`` — the observations the body must bear
out, each one sentence plus one check (:mod:`repro.bench.claims`).  The
``report`` CLI, ``benchmarks/test_experiments.py``, CI and
``tools/build_experiments_md.py`` all walk this table, so a protocol, a
table layout and a paper claim are each written down exactly once.

A record named after a :data:`repro.bench.spec.SPECS` key produces the
committed ``BENCH_<name>.json``; its ``protocol`` is exactly the
parameters of that document, so a bare ``python -m repro.bench.report
<name>`` regenerates it, through :func:`write_document` — the one writer.
``paper`` is the document of the source paper's own tables, figures and
ablations: it runs the other paper-side records on their protocols (the
ENZYMES and DD sweeps once for Fig. 1/2/4/5) and records every claim as a
gated boolean.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.bench import ablations, fleet, ops, runner, scale, scaling
from repro.bench.claims import Claim, among, each, extreme, on, paired, where
from repro.bench.serialize import cells_to_csv, document_to_json, serving_to_dict
from repro.bench.tables import format_seconds, render_table
from repro.datasets import FULL_MNIST_SIZE, compute_statistics, load_dataset
from repro.device import kernel_stats
from repro.fleet import POLICY_NAMES
from repro.models import ANISOTROPIC, MODEL_NAMES
from repro.packs import FRAMEWORKS
from repro.serve import bursty_trace, poisson_trace
from repro.train import compare_accuracies, multi_gpu_epoch_time


@dataclass(frozen=True)
class Experiment:
    """How one table, figure or ``BENCH_*.json`` document is produced."""

    name: str
    protocol: Mapping[str, Any]
    run: Callable[[Mapping[str, Any]], Any]
    render: Callable[[Any, Mapping[str, Any]], str]
    claims: Tuple[Claim, ...] = ()
    #: Serialisers behind ``--json`` / ``--csv``; ``None`` = not offered.
    to_json: Optional[Callable[[Any], str]] = None
    to_csv: Optional[Callable[[Any], str]] = None

    def failures(self, body) -> List[str]:
        """Why a finished run must still exit non-zero: each claim ``body``
        contradicts, as its sentence plus the offending cells."""
        return [f"{claim.sentence} -- fails for {', '.join(cells)}"
                for claim in self.claims if (cells := claim.check(body))]


def _grid(p) -> List[tuple]:
    """``(dataset, model, framework)`` in the order every table lists them."""
    return [(d, m, f) for d in p["datasets"] for m in p["models"] for f in p["frameworks"]]


def _names(values) -> str:
    return "+".join(values).upper()


def _per(value, dataset: str):
    """A protocol value that differs per dataset is a mapping with a ``"*"``
    default (``{"dd": 200, "*": 0}``); a CLI flag replaces it by a scalar."""
    return value.get(dataset, value["*"]) if isinstance(value, Mapping) else value


_PYG_DGL = [("pygx", "dglx")]

# ----------------------------------------------------------------------
# What the paper prints: the one mapping every paper-side record reads
# ----------------------------------------------------------------------
PAPER = {
    # Table I: dataset -> (#graphs, #nodes, #edges, #features, #classes)
    "statistics": {
        "cora": (1, 2708, 5429, 1433, 7),
        "pubmed": (1, 19717, 44338, 500, 3),
        "enzymes": (600, 32.63, 62.14, 18, 6),
        "mnist": (70000, 70.57, 564.53, 1, 10),
        "dd": (1178, 284.32, 715.66, 89, 2),
    },
    # Tables IV/V, "Epoch" column in seconds: dataset -> model -> (PyG, DGL)
    "epoch_time": {
        "cora": {"gcn": (0.0049, 0.0063), "gat": (0.0072, 0.0082), "sage": (0.0038, 0.0068),
                 "gin": (0.0058, 0.0061), "monet": (0.0068, 0.0086),
                 "gatedgcn": (0.0054, 0.0101)},
        "pubmed": {"gcn": (0.0053, 0.0071), "gat": (0.0082, 0.0092), "sage": (0.0050, 0.0063),
                   "gin": (0.0070, 0.0079), "monet": (0.0079, 0.0094),
                   "gatedgcn": (0.0063, 0.0174)},
        "enzymes": {"gcn": (0.087, 0.164), "gat": (0.117, 0.195), "sage": (0.071, 0.157),
                    "gin": (0.082, 0.155), "monet": (0.123, 0.196),
                    "gatedgcn": (0.104, 0.216)},
        "dd": {"gcn": (0.361, 0.853), "gat": (0.627, 1.042), "sage": (0.262, 0.603),
               "gin": (0.484, 0.882), "monet": (0.434, 0.758), "gatedgcn": (0.355, 1.255)},
    },
}


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------
def _run_table1(p):
    cells = []
    for name in p["datasets"]:
        dataset = load_dataset(name, num_graphs=_per(p["num_graphs"], name))
        reported = FULL_MNIST_SIZE if name == "mnist" else 0
        stats = compute_statistics(dataset, reported_num_graphs=reported)
        cells.append({"dataset": stats.name, "num_graphs": stats.num_graphs,
                      "avg_nodes": stats.avg_nodes, "avg_edges": stats.avg_edges,
                      "num_features": stats.num_features, "num_classes": stats.num_classes,
                      "paper": PAPER["statistics"][name]})
    return cells


TABLE1 = [
    ("Dataset", lambda c: c["dataset"]),
    ("#Graph", lambda c: c["num_graphs"]),
    ("#Nodes(Avg)", lambda c: f"{c['avg_nodes']:.2f}"),
    ("#Edges(Avg)", lambda c: f"{c['avg_edges']:.2f}"),
    ("#Feature", lambda c: c["num_features"]),
    ("#Classes", lambda c: c["num_classes"]),
    ("paper (G/N/E/F/C)", lambda c: "/".join(map(str, c["paper"]))),
]

_TABLE1_CLAIMS = (
    Claim("Average node counts are within 12 % of the paper's (15 % on the sampled MNIST)",
          each(("dataset",),
               lambda c: abs(c["avg_nodes"] - c["paper"][1])
               <= (0.15 if c["dataset"] == "MNIST" else 0.12) * c["paper"][1],
               where=lambda c: c["dataset"] in ("ENZYMES", "DD", "MNIST"))),
    Claim("Feature and class counts equal the paper's, and a citation dataset is one graph",
          each(("dataset",),
               lambda c: (c["num_features"], c["num_classes"]) == tuple(c["paper"][3:])
               and (c["paper"][0] != 1 or c["num_graphs"] == 1))),
)


# ----------------------------------------------------------------------
# Tables IV, V
# ----------------------------------------------------------------------
_RUN = ("dataset", "model", "framework")


def _timed_cell(dataset, model, framework, result, **extra) -> Dict:
    """A Table IV/V cell: the measured epoch beside the paper's printed one."""
    printed = PAPER["epoch_time"].get(dataset, {}).get(model)
    paper = printed[FRAMEWORKS.index(framework)] if printed else None
    return {
        "dataset": dataset, "model": model, "framework": framework,
        "measured": result.epoch_time, "paper": paper,
        "ratio": result.epoch_time / paper if paper else None,
        "total_time": result.total_time,
        "acc_mean": result.acc_mean, "acc_std": result.acc_std,
        "accs": [run.test_acc for run in result.runs],
        **extra,
    }


def _timed_table(epoch_digits: int, paper_digits: int):
    return [
        ("dataset", lambda c: c["dataset"]),
        ("model", lambda c: c["model"]),
        ("fw", lambda c: c["framework"]),
        ("epoch", lambda c: f"{c['measured'] * 1e3:.{epoch_digits}f}ms"),
        ("total", lambda c: format_seconds(c["total_time"])),
        ("acc", lambda c: f"{c['acc_mean'] * 100:.1f}+-{c['acc_std'] * 100:.1f}"),
        ("paper epoch", lambda c: f"{c['paper'] * 1e3:.{paper_digits}f}ms"
                                  if c["paper"] else "-"),
    ]


_CELLS_OUT = {"to_json": partial(json.dumps, indent=2), "to_csv": cells_to_csv}


def _run_table4(p):
    return [_timed_cell(d, m, f, runner.table4_cell(
                f, m, d, max_epochs=p["epochs"], seeds=_per(p["seeds"], d)), epochs=p["epochs"])
            for d, m, f in _grid(p)]


def _render_table4(cells, p):
    lines = [render_table(
        _timed_table(2, 1), cells,
        title=f"Table IV: node classification ({p['epochs']} epochs, simulated times)")]
    by_key = {tuple(c[k] for k in _RUN): c for c in cells}
    pairs = [(d, m) for d, m, f in by_key if f == "pygx" and (d, m, "dglx") in by_key]
    if pairs:
        lines.append("accuracy parity (pygx vs dglx, Welch t-test where seeds allow):")
    for d, m in pairs:
        cmp = compare_accuracies(by_key[d, m, "pygx"]["accs"], by_key[d, m, "dglx"]["accs"])
        verdict = "indistinguishable" if cmp.indistinguishable() else "differs"
        lines.append(f"  {d:7s} {m:9s} gap={cmp.mean_gap * 100:4.1f}pp "
                     f"p={cmp.p_value:.2f} -> {verdict}")
    return "\n".join(lines)


def _faster(field: str, factor=lambda cell: 1.0):
    """PyG's ``field`` is below DGL's by more than ``factor(cell)``."""
    return lambda pyg, dgl: dgl[field] > factor(pyg) * pyg[field]


def _accuracy_parity(tolerance):
    return paired(_RUN, "framework", _PYG_DGL,
                  lambda pyg, dgl: abs(pyg["acc_mean"] - dgl["acc_mean"]) < tolerance(pyg))


_SLOWEST_DGL = extreme(_RUN, "model", "gatedgcn", "measured",
                       where=where(framework="dglx"))

_TABLE4_CLAIMS = (
    Claim("PyG trains faster than DGL per epoch for every model on both citation datasets",
          paired(_RUN, "framework", _PYG_DGL, _faster("measured"))),
    Claim("The two frameworks reach similar accuracy (mean gap under 15 points)",
          _accuracy_parity(lambda c: 0.15)),
    Claim("GatedGCN is the slowest DGL model on each dataset (its edge-feature update)",
          _SLOWEST_DGL),
    Claim("On Cora, GatedGCN's DGL epoch costs more than 1.4x its PyG epoch",
          paired(_RUN, "framework", _PYG_DGL, _faster("measured", lambda c: 1.4),
                 where=where(dataset="cora", model="gatedgcn"))),
    # SAGE and GatedGCN (lr = 1e-3) are undertrained at the reduced cap.
    Claim("Given 30 epochs or more, GCN, GAT, GIN and MoNet under PyG reach 40-95 % on Cora",
          each(_RUN, lambda c: 0.4 < c["acc_mean"] < 0.95,
               where=lambda c: (c["dataset"], c["framework"]) == ("cora", "pygx")
               and c["model"] in ("gcn", "gat", "gin", "monet") and c["epochs"] >= 30)),
)


def _run_table5(p):
    cells = []
    for d, m, f in _grid(p):
        num_graphs, epochs = _per(p["num_graphs"], d), _per(p["epochs"], d)
        result = runner.table5_cell(f, m, d, num_graphs=num_graphs, max_epochs=epochs,
                                    max_folds=p["folds"])
        cells.append(_timed_cell(d, m, f, result, epochs=epochs,
                                 num_graphs=len(load_dataset(d, num_graphs=num_graphs))))
    return cells


_TABLE5_CLAIMS = (
    # The margin is smallest on DD, where compute-dominated epochs dilute
    # the loading gap.
    Claim("DGL's epoch costs more than 1.25x PyG's on ENZYMES and 1.15x on DD for every model",
          paired(_RUN, "framework", _PYG_DGL,
                 _faster("measured", lambda c: 1.15 if c["dataset"] == "dd" else 1.25))),
    Claim("The two frameworks reach similar accuracy (gap under 20 points; 30 on DD, whose "
          "reduced fold tests on 20 graphs)",
          _accuracy_parity(lambda c: 0.30 if c["dataset"] == "dd" else 0.20)),
    Claim("GatedGCN under DGL is the slowest configuration on each dataset", _SLOWEST_DGL),
    Claim("Per graph, a DD epoch costs more than 1.5x an ENZYMES epoch (GCN, PyG; given a "
          "full batch of each)",
          among(_RUN, [("dd", "gcn", "pygx"), ("enzymes", "gcn", "pygx")],
                lambda dd, enz: min(dd["num_graphs"], enz["num_graphs"]) < 128
                or dd["measured"] / dd["num_graphs"] > 1.5 * enz["measured"] / enz["num_graphs"])),
    Claim("On the full 600-graph ENZYMES, every epoch time is within 80 % of the paper's",
          each(_RUN, lambda c: abs(c["ratio"] - 1.0) <= 0.8,
               where=lambda c: c["dataset"] == "enzymes"
               and c["num_graphs"] == PAPER["statistics"]["enzymes"][0])),
)


# ----------------------------------------------------------------------
# Fig. 1/2 (breakdown), 4 (memory), 5 (utilisation): one sweep, four views
# ----------------------------------------------------------------------
_SWEEP_KEYS = ("dataset", "model", "framework", "batch_size")
_BATCH_64_256 = [(64, 256)]


def _run_sweep(p):
    cells = []
    for d, m, f in _grid(p):
        for batch_size in p["batch_sizes"]:
            run = runner.epoch_profile(f, m, d, batch_size, _per(p["num_graphs"], d),
                                       p["epochs"])
            cells.append({
                "dataset": d, "model": m, "framework": f, "batch_size": batch_size,
                **runner.breakdown_row(run), "epoch_time": run.mean_epoch_time,
                "peak_memory": run.peak_memory, "gpu_utilization": run.gpu_utilization,
            })
    return cells


def _render_sweep(title: str, columns, with_dataset: bool):
    """One view of the sweep: the cells of the protocol's datasets, sorted
    the way the paper's figures group them (framework, then model)."""
    table = [("model", lambda c: c["model"]), ("fw", lambda c: c["framework"]),
             ("batch", lambda c: c["batch_size"])] + columns
    if with_dataset:
        table.insert(0, ("dataset", lambda c: c["dataset"]))

    def render(cells, p):
        rows = [c for c in cells if c["dataset"] in p["datasets"]]
        rows.sort(key=lambda c: (p["datasets"].index(c["dataset"]), c["framework"],
                                 c["model"], c["batch_size"]))
        caps = [_per(p["num_graphs"], d) for d in p["datasets"]]
        return render_table(table, rows, title=title.format(
            datasets=_names(p["datasets"]),
            subset="".join(f" ({cap} graphs)" for cap in caps if cap)))

    return render


_render_breakdown = partial(
    _render_sweep,
    columns=[(f"{phase} (ms)", lambda c, phase=phase: f"{c[phase] * 1e3:.1f}")
             for phase in runner.PHASE_ORDER]
    + [("epoch (ms)", lambda c: f"{c['epoch_time'] * 1e3:.1f}")],
    with_dataset=False,
)


def _fwd_bwd(cell) -> float:
    return cell["forward"] + cell["backward"]


_FIG1_CLAIMS = (
    Claim("On ENZYMES, DGL's data loading costs more than 1.5x PyG's for every model and "
          "batch size",
          paired(_SWEEP_KEYS, "framework", _PYG_DGL, _faster("data_loading", lambda c: 1.5),
                 where=where(dataset="enzymes"))),
    Claim("On ENZYMES, data loading is the largest phase of every DGL epoch at the paper's "
          "batch sizes (64 and up)",
          each(_SWEEP_KEYS,
               lambda c: c["data_loading"] >= max(c["forward"], c["backward"], c["update"]),
               where=lambda c: (c["dataset"], c["framework"]) == ("enzymes", "dglx")
               and c["batch_size"] >= 64)),
    Claim("On ENZYMES, growing the batch from 64 to 256 cuts forward+backward below 0.6x "
          "(launch-bound kernels; the paper's \"nearly halved\")",
          paired(_SWEEP_KEYS, "batch_size", _BATCH_64_256,
                 lambda small, large: _fwd_bwd(large) < 0.6 * _fwd_bwd(small),
                 where=where(dataset="enzymes"))),
    Claim("On ENZYMES, PyG's loading time at batch 256 is within 25 % of batch 64 "
          "(per-graph dominated)",
          paired(_SWEEP_KEYS, "batch_size", _BATCH_64_256,
                 lambda small, large: abs(large["data_loading"] - small["data_loading"])
                 <= 0.25 * small["data_loading"],
                 where=where(dataset="enzymes", framework="pygx"))),
)

_FIG2_CLAIMS = (
    Claim("On DD, DGL's epoch is slower than PyG's for every model and batch size",
          paired(_SWEEP_KEYS, "framework", _PYG_DGL, _faster("epoch_time"), where=where(dataset="dd"))),
    Claim("On DD, forward+backward at batch 256 stays above 0.55x of batch 64 "
          "(bandwidth-bound kernels: the ENZYMES scaling breaks)",
          paired(_SWEEP_KEYS, "batch_size", _BATCH_64_256,
                 lambda small, large: _fwd_bwd(large) > 0.55 * _fwd_bwd(small),
                 where=where(dataset="dd"))),
)

_FIG4_CLAIMS = (
    Claim("GatedGCN has the highest peak memory of the DGL models at every batch size",
          extreme(_SWEEP_KEYS, "model", "gatedgcn", "peak_memory",
                  where=where(framework="dglx"))),
    Claim("GatedGCN's peak memory under DGL is more than 1.3x its PyG version's",
          paired(_SWEEP_KEYS, "framework", _PYG_DGL, _faster("peak_memory", lambda c: 1.3),
                 where=where(model="gatedgcn"))),
    Claim("The anisotropic models' peak memory grows more than 1.5x from batch 64 to 256",
          paired(_SWEEP_KEYS, "batch_size", _BATCH_64_256,
                 lambda small, large: large["peak_memory"] > 1.5 * small["peak_memory"],
                 where=lambda c: c["model"] in ANISOTROPIC)),
    Claim("The isotropic PyG models at batch 128 stay under 2 GB of the 11 GB card",
          each(_SWEEP_KEYS, lambda c: c["peak_memory"] < 2e9,
               where=lambda c: c["model"] in ("gcn", "gin", "sage")
               and (c["framework"], c["batch_size"]) == ("pygx", 128))),
    Claim("DD needs more memory than ENZYMES at equal batch size (GAT, PyG, batch 128)",
          paired(_SWEEP_KEYS, "dataset", [("enzymes", "dd")],
                 lambda enz, dd: dd["peak_memory"] > enz["peak_memory"],
                 where=where(model="gat", framework="pygx", batch_size=128))),
)

_FIG5_CLAIMS = (
    # The DD subset runs hotter than the paper's DD: its loading cost per
    # graph is low relative to its kernel sizes.
    Claim("GPU utilisation stays under 45 % on ENZYMES and under 65 % on the DD subset",
          each(_SWEEP_KEYS,
               lambda c: c["gpu_utilization"] < (0.65 if c["dataset"] == "dd" else 0.45))),
    Claim("DGL's utilisation sits below PyG's in every cell",
          paired(_SWEEP_KEYS, "framework", _PYG_DGL,
                 lambda pyg, dgl: dgl["gpu_utilization"] < pyg["gpu_utilization"])),
    Claim("DD's larger kernels push utilisation above ENZYMES's (GCN, PyG, batch 128)",
          paired(_SWEEP_KEYS, "dataset", [("enzymes", "dd")],
                 lambda enz, dd: dd["gpu_utilization"] > enz["gpu_utilization"],
                 where=where(model="gcn", framework="pygx", batch_size=128))),
    Claim("Within DGL at batch 128, GatedGCN has the highest utilisation",
          extreme(_SWEEP_KEYS, "model", "gatedgcn", "gpu_utilization",
                  where=where(framework="dglx", batch_size=128))),
)


# ----------------------------------------------------------------------
# Fig. 3 (layers), Fig. 6 (multi-GPU), top kernels
# ----------------------------------------------------------------------
_LAYER_KEYS = ("model", "framework")
_CONVS = ("conv1", "conv2", "conv3", "conv4")
FIG3_TABLE = [("model", lambda c: c["model"]), ("fw", lambda c: c["framework"])] + [
    (f"{scope} (us)", lambda c, scope=scope: f"{c[scope] * 1e6:.0f}")
    for scope in _CONVS + ("pooling", "classifier")
]


def _run_fig3(p):
    cells = []
    for m in p["models"]:
        for f in p["frameworks"]:
            scopes = runner.layerwise_profile(f, m, "enzymes", batch_size=p["batch_size"],
                                              num_graphs=p["num_graphs"])
            cells.append({"model": m, "framework": f, **scopes,
                          "step_time": sum(scopes.values())})
    return cells


def _conv_time(cell) -> float:
    return sum(cell[scope] for scope in _CONVS)


_FIG3_CLAIMS = (
    Claim("DGL's conv layers cost more in total than PyG's for every model (Section IV-C)",
          paired(_LAYER_KEYS, "framework", _PYG_DGL,
                 lambda pyg, dgl: _conv_time(dgl) > _conv_time(pyg))),
    Claim("DGL's segment-reduce pooling costs more than PyG's scatter pooling",
          paired(_LAYER_KEYS, "framework", _PYG_DGL, _faster("pooling"))),
    Claim("Every conv layer ran kernels",
          each(_LAYER_KEYS, lambda c: all(c[scope] > 0 for scope in _CONVS))),
    Claim("conv1 of DGL's GIN costs at least 0.8x its conv2 and conv3 (GSpMM over the raw "
          "input features)",
          each(_LAYER_KEYS, lambda c: c["conv1"] >= 0.8 * max(c["conv2"], c["conv3"]),
               where=where(model="gin", framework="dglx"))),
)

_GPU_KEYS = ("model", "framework", "batch_size", "n_gpus")


def _run_fig6(p):
    dataset = load_dataset("mnist", num_graphs=p["num_graphs"])
    return [{"model": m, "framework": f, "batch_size": batch_size, "n_gpus": n_gpus,
             "epoch_time": multi_gpu_epoch_time(f, m, dataset, batch_size=batch_size,
                                                n_gpus=n_gpus, max_batches=p["max_batches"])}
            for m in p["models"] for f in p["frameworks"]
            for batch_size in p["batch_sizes"] for n_gpus in p["gpus"]]


def _render_fig6(cells, p):
    times = {tuple(c[k] for k in _GPU_KEYS): c["epoch_time"] for c in cells}
    gpus = list(dict.fromkeys(c["n_gpus"] for c in cells))
    table = [("model", lambda k: k[0]), ("fw", lambda k: k[1]), ("batch", lambda k: k[2])]
    table += [(f"{n}gpu (ms)", lambda k, n=n: f"{times[k + (n,)] * 1e3:.0f}") for n in gpus]
    return render_table(
        table, list(dict.fromkeys(key[:3] for key in times)),
        title=f"Fig. 6: simulated epoch time vs GPU count, MNIST ({p['num_graphs']} graphs)")


def _gpu_steps(pairs, holds) -> Callable:
    return paired(_GPU_KEYS, "n_gpus", pairs,
                  lambda few, many: holds(few["epoch_time"], many["epoch_time"]))


_FIG6_CLAIMS = (
    Claim("From 1 to 2 to 4 GPUs the epoch never slows down by more than 10 %",
          _gpu_steps([(1, 2), (2, 4)], lambda few, many: many < 1.10 * few)),
    Claim("Going from 4 to 8 GPUs gains less than 20 % (DataParallel's serial scatter/gather "
          "grows with the replica count)",
          _gpu_steps([(4, 8)], lambda four, eight: eight > 0.8 * four)),
    Claim("Four GPUs never halve the single-GPU epoch (loading stays serial on the host)",
          _gpu_steps([(1, 4)], lambda one, four: four > 0.5 * one)),
)


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
# Ablations and extensions (cell functions: repro.bench.ablations)
# ----------------------------------------------------------------------
def _pivot(cells, row_key: str, column_key: str, field: str):
    """``{row: {column: value}}`` of one field, in first-seen order."""
    table: Dict[Any, Dict[Any, Any]] = {}
    for cell in cells:
        table.setdefault(cell[row_key], {})[cell[column_key]] = cell[field]
    return table


def _render_batching(cells, p):
    rows = _pivot(cells, "batch_size", "framework", "seconds").items()
    table = [("batch", lambda r: r[0])]
    table += [(f"{f} (ms)", lambda r, f=f: f"{r[1][f] * 1e3:.1f}") for f in p["frameworks"]]
    if set(FRAMEWORKS) <= set(p["frameworks"]):
        table.append(("dgl/pyg", lambda r: f"{r[1]['dglx'] / r[1]['pygx']:.2f}x"))
    graphs = p["num_graphs"] or PAPER["statistics"]["enzymes"][0]
    return render_table(table, list(rows),
                        title=f"Ablation: collating all {graphs} ENZYMES graphs, loader only")


_BATCHING_KEYS = ("framework", "batch_size")
_BATCHING_CLAIMS = (
    Claim("Heterograph collation costs between 1.5x and 6x the vectorised path at every "
          "batch size",
          paired(_BATCHING_KEYS, "framework", _PYG_DGL,
                 lambda pyg, dgl: 1.5 < dgl["seconds"] / pyg["seconds"] < 6.0)),
    Claim("PyG's total collation cost at batch 256 is within 30 % of batch 64 (per-graph "
          "dominated)",
          paired(_BATCHING_KEYS, "batch_size", _BATCH_64_256,
                 lambda small, large: abs(large["seconds"] - small["seconds"])
                 <= 0.3 * small["seconds"],
                 where=where(framework="pygx"))),
)

_DENSE_KEYS = ("kind", "batch_size")


def _dense_vs_pyg(batch: int, holds) -> Callable:
    return among(_DENSE_KEYS, [("dense", batch), ("pygx", batch)], holds)


_DENSE_CLAIMS = (
    Claim("At 32 DD graphs (~9 000 nodes) the dense GCN step costs more than 1.5x PyG's",
          _dense_vs_pyg(32, lambda dense, pyg: dense["step_time"] > 1.5 * pyg["step_time"])),
    Claim("At 32 DD graphs the dense form needs more than 1.2x PyG's peak memory",
          _dense_vs_pyg(32, lambda dense, pyg: dense["peak_memory"] > 1.2 * pyg["peak_memory"])),
    Claim("The dense/PyG memory ratio grows more than 1.5x from 16 to 32 graphs (quadratic "
          "adjacency; below the crossover the sparse per-edge activations weigh more)",
          among(_DENSE_KEYS, [("dense", 16), ("pygx", 16), ("dense", 32), ("pygx", 32)],
                lambda dense16, pyg16, dense32, pyg32:
                dense32["peak_memory"] / pyg32["peak_memory"]
                > 1.5 * dense16["peak_memory"] / pyg16["peak_memory"])),
)


def _render_edgefeat(cells, p):
    by_key = {(c["framework"], c["batch_size"]): c for c in cells}

    def both(batch, fmt):
        return "/".join(fmt(by_key[f, batch]) for f in FRAMEWORKS)

    def ratio(batch, field):
        return f"{by_key['dglx', batch][field] / by_key['pygx', batch][field]:.2f}x"

    return render_table(
        [("batch", lambda b: b),
         ("step pyg/dgl (ms)", lambda b: both(b, lambda c: f"{c['step_time'] * 1e3:.1f}")),
         ("time ratio", lambda b: ratio(b, "step_time")),
         ("peak pyg/dgl (MB)", lambda b: both(b, lambda c: f"{c['peak_memory'] / 1e6:.0f}")),
         ("mem ratio", lambda b: ratio(b, "peak_memory"))],
        [b for b in p["batch_sizes"] if all((f, b) in by_key for f in FRAMEWORKS)],
        title="Ablation: GatedGCN with (dglx) vs without (pygx) the edge-feature path")


_EDGEFEAT_CLAIMS = (
    Claim("The edge-feature path costs GatedGCN more than 1.3x the step time",
          paired(_BATCHING_KEYS, "framework", _PYG_DGL, _faster("step_time", lambda c: 1.3))),
    Claim("The edge-feature path costs GatedGCN more than 1.3x the peak memory (per-edge "
          "states and their gradients)",
          paired(_BATCHING_KEYS, "framework", _PYG_DGL, _faster("peak_memory", lambda c: 1.3))),
)

_SPEED_KEYS = ("dataset", "speed")


def _render_gpu_specs(cells, p):
    base = {c["dataset"]: c["epoch_time"] for c in cells if c["speed"] == 1.0}
    return render_table(
        [("dataset", lambda c: c["dataset"]),
         ("GPU speed", lambda c: f"{c['speed']:.1f}x"),
         ("epoch (ms)", lambda c: f"{c['epoch_time'] * 1e3:.1f}"),
         ("speedup vs 1.0x", lambda c: f"{base[c['dataset']] / c['epoch_time']:.2f}x"
                                       if c["dataset"] in base else "-")],
        cells, title="Ablation: GCN epoch time vs raw GPU speed (host costs fixed)")


def _speedup(slow, fast) -> float:
    return slow["epoch_time"] / fast["epoch_time"]


_GPU_SPECS_CLAIMS = (
    Claim("Epoch time falls monotonically with device speed",
          paired(_SPEED_KEYS, "speed", [(0.5, 1.0), (1.0, 4.0)],
                 lambda slow, fast: slow["epoch_time"] > fast["epoch_time"])),
    Claim("A 4x faster GPU buys less than 2x end to end: the GPU is not the bottleneck",
          paired(_SPEED_KEYS, "speed", [(1.0, 4.0)],
                 lambda base, quad: _speedup(base, quad) < 2.0)),
    Claim("Bandwidth-bound DD responds more to device speed than launch-bound ENZYMES",
          among(_SPEED_KEYS, [("dd", 1.0), ("dd", 4.0), ("enzymes", 1.0), ("enzymes", 4.0)],
                lambda dd, dd4, enz, enz4: _speedup(dd, dd4) > _speedup(enz, enz4))),
)


def _render_heterograph(cells, p):
    base = next((c["seconds"] for c in cells if c["edge_types"] == 1), None)
    return render_table(
        [("edge types", lambda c: c["edge_types"]),
         (f"collate {p['num_graphs']} graphs (ms)", lambda c: f"{c['seconds'] * 1e3:.1f}"),
         ("vs 1 type", lambda c: f"{c['seconds'] / base:.2f}x" if base else "-")],
        cells, title="Ablation: heterograph batching cost vs type-vocabulary size")


_HETERO_TYPES = (1, 2, 4, 8)
_HETEROGRAPH_CLAIMS = (
    Claim("Collation cost rises with every doubling of the edge-type vocabulary",
          paired(("edge_types",), "edge_types", zip(_HETERO_TYPES, _HETERO_TYPES[1:]),
                 lambda few, many: many["seconds"] > few["seconds"])),
    Claim("Eight relations cost more than 1.1x one relation: the heterograph tax is real",
          paired(("edge_types",), "edge_types", [(1, 8)],
                 lambda one, eight: eight["seconds"] > 1.1 * one["seconds"])),
)


_OVERHEAD_KEYS = ("launch_overhead_us", "batch_size")


def _render_launch_overhead(cells, p):
    table = _pivot(cells, "launch_overhead_us", "batch_size", "fwd_bwd")
    columns = [("launch overhead (us)", lambda r: f"{r[0]:.0f}")]
    columns += [(f"fwd+bwd @{b} (ms)", lambda r, b=b: f"{r[1][b] * 1e3:.1f}")
                for b in p["batch_sizes"]]
    columns.append(("ratio", lambda r: f"{r[1][256] / r[1][64]:.2f}"
                                       if 64 in r[1] and 256 in r[1] else "-"))
    return render_table(columns, list(table.items()),
                        title="Ablation: ENZYMES GCN forward+backward vs launch overhead")


def _batch_ratio(small, large) -> float:
    """fwd+bwd at batch 256 over batch 64: 1.0 = batching buys nothing, 0.25 = ideal."""
    return large["fwd_bwd"] / small["fwd_bwd"]


def _ratio_at(overhead_us: float, holds) -> Callable:
    return paired(_OVERHEAD_KEYS, "batch_size", _BATCH_64_256,
                  lambda small, large: holds(_batch_ratio(small, large)),
                  where=where(launch_overhead_us=overhead_us))


_LAUNCH_OVERHEAD_CLAIMS = (
    Claim("With zero launch overhead the batch size barely matters (256-vs-64 ratio above 0.6)",
          _ratio_at(0.0, lambda ratio: ratio > 0.6)),
    Claim("The larger the launch overhead, the further batching cuts forward+backward",
          among(_OVERHEAD_KEYS, [(o, b) for o in (0.0, 35.0, 70.0) for b in (64, 256)],
                lambda s0, l0, s35, l35, s70, l70:
                _batch_ratio(s70, l70) < _batch_ratio(s35, l35) < _batch_ratio(s0, l0))),
    Claim("At 70 us of launch overhead the ratio falls below 0.45, towards the ideal 4x",
          _ratio_at(70.0, lambda ratio: ratio < 0.45)),
)

_FUSION_KEYS = ("kind", "width")
_FUSED_UNFUSED = [("fused", "unfused")]
_FUSION_CLAIMS = (
    Claim("Fused GSpMM and gather+scatter compute the same aggregation (within 1e-3)",
          each(_FUSION_KEYS, lambda c: c["max_abs_diff"] <= 1e-3)),
    Claim("Fusion launches fewer kernels than the gather+scatter pair",
          paired(_FUSION_KEYS, "kind", _FUSED_UNFUSED,
                 lambda fused, unfused: fused["launches"] < unfused["launches"])),
    Claim("Both pipelines spend kernel time",
          each(_FUSION_KEYS, lambda c: c["kernel_time"] > 0)),
)

_STRATEGY_LABELS = {"standard": "standard loader", "cached": "cached loader (steady state)",
                    "pipelined": "pipelined loader (projected)"}
_STANDARD_CACHED = [("standard", "cached")]


def _strategies(pairs, holds) -> Callable:
    return paired(("strategy",), "strategy", pairs, holds)


_BATCHING_OPT_CLAIMS = (
    Claim("From its second epoch the caching loader's epoch costs under 0.7x the standard one",
          _strategies(_STANDARD_CACHED,
                      lambda std, cached: cached["epoch_time"] < 0.7 * std["epoch_time"])),
    Claim("The cache-filling first epoch costs within 15 % of a standard epoch",
          _strategies(_STANDARD_CACHED,
                      lambda std, cached: abs(cached["first_epoch_time"]
                                              - std["first_epoch_time"])
                      <= 0.15 * std["first_epoch_time"])),
    Claim("Removing the serial loading raises GPU utilisation",
          _strategies(_STANDARD_CACHED,
                      lambda std, cached: cached["gpu_utilization"] > std["gpu_utilization"])),
    Claim("The pipelined projection lands between 0.4x and 1x of its serial epoch",
          each(("strategy",),
               lambda c: 0.4 * c["first_epoch_time"] < c["epoch_time"] < c["first_epoch_time"],
               where=where(strategy="pipelined"))),
)


# ----------------------------------------------------------------------
# The gated extension documents
# ----------------------------------------------------------------------
def _run_serving(p):
    trace = tuple(poisson_trace(p["requests"], rate=p["rate"], rng=0))
    # BENCH_serving.json is gated by position: entries go by framework name,
    # unbatched then batched.
    results = [
        runner.serving_cell(f, m, d, trace, max_batch_size=max_batch,
                            queue_capacity=p["queue_capacity"], num_graphs=p["num_graphs"])
        for d, m, f in sorted(_grid(p), key=lambda cell: cell[2])
        for max_batch in (1, p["max_batch_size"])
    ]
    # Over-capacity bursts against a small bounded queue: shedding, not
    # unbounded queue growth, is the designed failure mode.
    d, m, f = _grid(p)[0]
    burst = p["burst"]
    trace = tuple(bursty_trace(burst["requests"], burst_size=burst["burst_size"],
                               burst_rate=burst["burst_rate"], idle_gap=burst["idle_gap"],
                               rng=1))
    results.append(runner.serving_cell(
        f, m, d, trace, max_batch_size=burst["max_batch_size"], max_nodes=burst["max_nodes"],
        queue_capacity=burst["queue_capacity"], deadline=burst["deadline"],
        num_graphs=p["num_graphs"],
    ))
    return [serving_to_dict(result) for result in results]


def _with_policy(cells, unbatched="unbatched", batched="batched", burst="burst") -> List[Dict]:
    """Serving cells carry no batching-policy field (the document is
    positional): name it, per unbatched/batched pair and for the final burst."""
    policies = [unbatched, batched] * (len(cells) // 2) + [burst]
    return [{**cell, "policy": policy} for cell, policy in zip(cells, policies)]


def _render_serving(cells, p):
    return render_table(
        [("policy", lambda c: c["policy"])] + runner.SERVING_TABLE,
        _with_policy(cells, "b1", f"b{p['max_batch_size']}",
                     f"burst/b{p['burst']['max_batch_size']}"),
        title=f"Serving: {p['requests']}-request Poisson @ {p['rate']:.0f}/s, "
              f"{_names(p['models'])}/{_names(p['datasets'])} "
              f"(b1 = unbatched; burst = over-capacity trace, "
              f"queue={p['burst']['queue_capacity']})",
    )


_POLICY_KEYS = _RUN + ("policy",)
_SERVING_REQUESTS = 1000
_BURST = {"requests": 300, "burst_size": 150, "burst_rate": 20000.0, "idle_gap": 0.05,
          "max_batch_size": 8, "max_nodes": 1024, "queue_capacity": 32, "deadline": 0.25}


def _serving(check):
    return lambda cells: check(_with_policy(cells))


def _p99(cell) -> float:
    return cell["latency_percentiles"]["99.0"]


_SERVING_CLAIMS = (
    Claim("Every request is completed, shed or failed: none is silently lost",
          _serving(each(_POLICY_KEYS,
                        lambda c: c["completed"] + c["shed"] + c["failed"] == c["n_requests"]))),
    Claim(f"The {_SERVING_REQUESTS}-request trace saturates request-at-a-time serving (it "
          "sheds) while the batched server completes every request",
          _serving(paired(_POLICY_KEYS, "policy", [("unbatched", "batched")],
                          lambda one, many: one["shed"] > 0
                          and many["completed"] == many["n_requests"],
                          where=where(n_requests=_SERVING_REQUESTS)))),
    Claim("Where unbatched serving saturates, dynamic batching sustains more than 1.5x its "
          "throughput at a lower p99",
          _serving(paired(_POLICY_KEYS, "policy", [("unbatched", "batched")],
                          lambda one, many: not one["shed"]
                          or (many["throughput"] > 1.5 * one["throughput"]
                              and many["mean_batch_size"] > 1.5 and _p99(many) < _p99(one))))),
    Claim("Collation and forward time both show in the batched server's phase breakdown",
          _serving(each(_POLICY_KEYS,
                        lambda c: c["phase_times"]["data_loading"] > 0.0
                        and c["phase_times"]["forward"] > 0.0,
                        where=where(policy="batched")))),
    Claim(f"The over-capacity burst is shed at the bounded queue (depth at most "
          f"{_BURST['queue_capacity']}), not queued without bound",
          _serving(each(_POLICY_KEYS,
                        lambda c: c["shed_by_reason"].get("queue_full", 0) > 0
                        and c["max_queue_depth"] <= _BURST["queue_capacity"],
                        where=where(policy="burst")))),
    Claim("PyG-style serving sustains higher batched throughput than DGL-style",
          _serving(paired(_POLICY_KEYS, "framework", _PYG_DGL,
                          lambda pyg, dgl: pyg["throughput"] > dgl["throughput"],
                          where=where(policy="batched")))),
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


_MODEL_FW = ("model", "framework")
_COMPILE_CLAIMS = (
    Claim("Compiled loss curves equal eager's (replay re-runs the same numpy program)",
          on("cells", each(_MODEL_FW, lambda c: c["parity"]))),
    Claim("Compilation removes at least 40 % of the kernel launches per training step",
          on("cells", each(_MODEL_FW, lambda c: c["launch_reduction"] >= 0.40))),
    Claim("Every compiled epoch is faster than its eager twin",
          on("cells", each(_MODEL_FW,
                           lambda c: c["compiled_epoch_time"] < c["eager_epoch_time"]))),
    Claim("After its single capture the plan replays without tripping a guard",
          on("cells", each(_MODEL_FW,
                           lambda c: c["guard_failures"] == 0 and c["replays"] > 0))),
    Claim("Elementwise-heavy GIN sheds at least as large a launch fraction as GCN",
          on("cells", paired(_MODEL_FW, "model", [("gcn", "gin")],
                             lambda gcn, gin: gin["launch_reduction"]
                             >= gcn["launch_reduction"]))),
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


_OVERLAP_KEYS = ("model", "framework", "compiled")
_OVERLAP_CLAIMS = (
    Claim("Prefetched losses and test accuracy are bitwise identical to the serial run",
          on("cells", each(_OVERLAP_KEYS, lambda c: c["parity"]
                           and c["serial_losses"] == c["overlapped_losses"]))),
    Claim("The executed overlapped epoch lands within the tolerance of the projection",
          on("cells", each(_OVERLAP_KEYS, lambda c: c["within_projection"]))),
    Claim("Hiding collation saves epoch time and raises GPU utilisation",
          on("cells", each(_OVERLAP_KEYS, lambda c: c["speedup"] > 1.0
                           and c["overlapped_utilization"] > c["serial_utilization"]))),
    Claim("DGL-style collation, the bigger serial share, gains at least as much as PyG-style",
          on("cells", paired(_OVERLAP_KEYS, "framework", _PYG_DGL,
                             lambda pyg, dgl: dgl["speedup"] >= pyg["speedup"]))),
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


_FAULTS_CLAIMS = (
    Claim("Under every fault rate each request is completed, shed or failed: none is "
          "silently lost",
          on("cells", each(_MODEL_FW + ("fault_rate",),
                           lambda c: c["resolved"] == c["n_requests"]))),
)


def _run_ops(p):
    return ops.ops_document(
        ops.ops_grid(p["shapes"], p["ops"], p["frameworks"], p["modes"], p["precisions"])
    )


_OPS_KEYS = ("op", "pack", "mode", "shape", "precision")
_PAPER_SHAPES = ("cora", "pubmed", "enzymes-b128", "mnist-b128", "dd-b128")
_FP32_FP16 = [("fp32", "fp16")]


def _ops(op: str, shapes=_PAPER_SHAPES, **fixed):
    """Cell filter: the eager fp32 cells of ``op`` on ``shapes``; ``fixed``
    pins further fields, or frees one of those two with ``None``."""
    fixed = {"op": op, "mode": "eager", "precision": "fp32", **fixed}
    pinned = where(**{k: v for k, v in fixed.items() if v is not None})
    return lambda c: c["shape"] in shapes and pinned(c)


def _launches(expected) -> Callable:
    return lambda a, b: (a["launches"], b["launches"]) == expected


def _fp16_moves_only_bytes(f32, f16) -> bool:
    speedup = f32["wall_time"] / f16["wall_time"]
    bounds = {f32["bound"], f16["bound"]}
    return (f16["launches"] == f32["launches"]
            and (bounds != {"bandwidth"} or speedup > 1.5)
            and (bounds != {"launch"} or speedup < 1.5))


def _gspmm_winner(pack: str, bound: str) -> Callable:
    def holds(pyg, dgl):
        winner, loser = (pyg, dgl) if pack == "pygx" else (dgl, pyg)
        return winner["bound"] == bound and winner["wall_time"] < loser["wall_time"]
    return holds


_OPS_CLAIMS = tuple(Claim(sentence, on("cells", check)) for sentence, check in (
    ("The gather->scatter SpMM lowering pays two launches per propagation where fused GSpMM "
     "pays one (Section IV-C)",
     paired(_OPS_KEYS, "pack", _PYG_DGL, _launches((2, 1)), where=_ops("gspmm"))),
    ("The attention logits follow the same dichotomy, wider: four launches unfused, one as "
     "fused GSDDMM",
     paired(_OPS_KEYS, "pack", _PYG_DGL, _launches((4, 1)), where=_ops("sddmm"))),
    ("Compilation fuses the four-launch elementwise chain into one faster kernel",
     paired(_OPS_KEYS, "mode", [("eager", "compiled")],
            lambda eager, fused: _launches((4, 1))(eager, fused)
            and fused["wall_time"] < eager["wall_time"],
            where=_ops("elementwise", pack="pygx", mode=None))),
    ("fp16 halves bytes, not launches: bandwidth-bound cells gain more than 1.5x, "
     "launch-bound cells less",
     paired(_OPS_KEYS, "precision", _FP32_FP16, _fp16_moves_only_bytes)),
    ("The large bandwidth-bound PubMed GSpMM nearly doubles under fp16 (more than 1.9x)",
     paired(_OPS_KEYS, "precision", _FP32_FP16,
            lambda f32, f16: f32["wall_time"] / f16["wall_time"] > 1.9,
            where=_ops("gspmm", ("pubmed",), pack="pygx", precision=None))),
    ("The purely launch-bound ENZYMES-batch GEMM does not move at all under fp16",
     paired(_OPS_KEYS, "precision", _FP32_FP16,
            lambda f32, f16: f32["wall_time"] == f16["wall_time"],
            where=_ops("gemm", ("enzymes-b128",), pack="pygx", precision=None))),
    ("Fused GSpMM is launch-bound and wins where launches dominate (ENZYMES, MNIST batches)",
     paired(_OPS_KEYS, "pack", _PYG_DGL, _gspmm_winner("dglx", "launch"),
            where=_ops("gspmm", ("enzymes-b128", "mnist-b128")))),
    ("gather+scatter is bandwidth-bound and wins the feature-heavy datasets (Cora, PubMed, "
     "DD batches)",
     paired(_OPS_KEYS, "pack", _PYG_DGL, _gspmm_winner("pygx", "bandwidth"),
            where=_ops("gspmm", ("cora", "pubmed", "dd-b128")))),
    ("The tiny ENZYMES-batch GEMM is launch-bound while the 1433-wide Cora GEMM is "
     "compute-bound",
     each(_OPS_KEYS,
          lambda c: c["bound"] == {"enzymes-b128": "launch", "cora": "compute"}[c["shape"]],
          where=_ops("gemm", ("enzymes-b128", "cora"), pack="pygx"))),
    ("Sparse propagation never becomes compute-bound, and copies carry no FLOPs",
     each(_OPS_KEYS,
          lambda c: (c["op"] not in ("gspmm", "sddmm", "scatter_reduce")
                     or c["bound"] != "compute")
          and (c["op"] != "h2d" or c["flops"] == 0.0))),
    ("Cora's feature-heavy host-to-device copy saturates the link (bandwidth-bound)",
     each(_OPS_KEYS, lambda c: c["bound"] == "bandwidth",
          where=_ops("h2d", ("cora",), pack="pygx"))),
))


def _run_fleet(p):
    return fleet.fleet_document(fleet.fleet_grid(
        p["kinds"], p["replicas"], p["policies"], n_requests=p["requests"], scale=p["scale"],
        seed=p["seed"], chrome_trace=p["chrome_trace"],
    ))


_FLEET_KEYS = ("kind", "policy", "replicas")
_FLEET_SWEEP = list(zip(fleet.REPLICA_SWEEP, fleet.REPLICA_SWEEP[1:]))
_FLEET_ENDS = [(min(fleet.REPLICA_SWEEP), max(fleet.REPLICA_SWEEP))]


_FLEET_CLAIMS = tuple(Claim(sentence, on("cells", check)) for sentence, check in (
    ("Every request resolves explicitly, fleet-wide and per tenant: none is silently lost",
     each(_FLEET_KEYS,
          lambda c: c["no_silent_loss"] and c["resolved"] == c["n_requests"]
          and all(t["resolved"] == t["n_requests"] for t in c["tenants"].values()))),
    ("Goodput grows with every doubling of the fleet",
     paired(_FLEET_KEYS, "replicas", _FLEET_SWEEP,
            lambda thinner, wider: wider["goodput"] > thinner["goodput"],
            where=where(kind="replicas"))),
    ("The largest fleet completes every request and undercuts the single replica's p99",
     paired(_FLEET_KEYS, "replicas", _FLEET_ENDS,
            lambda one, full: full["p99"] < one["p99"]
            and full["completed"] == full["n_requests"],
            where=where(kind="replicas"))),
    ("Load-aware routing (power-of-two-choices, least-loaded) beats round-robin on p99 at "
     "the largest fleet",
     paired(_FLEET_KEYS, "policy", [("round_robin", "p2c"), ("round_robin", "least_loaded")],
            lambda blind, aware: aware["p99"] < blind["p99"], where=where(kind="policy"))),
    (f"On the full {fleet.TRACE_REQUESTS}-request trace the chaos replay loses two replicas "
     "and handles it explicitly (reroutes, retries, replica_lost failures)",
     each(_FLEET_KEYS,
          lambda c: c["replica_losses"] == 2 and c["reroutes"] > 0 and c["retries"] > 0
          and c["failed"] > 0 and "replica_lost" in c["failed_by_reason"],
          where=where(kind="chaos", n_requests=fleet.TRACE_REQUESTS))),
    ("The autoscaler grows a one-replica fleet into the burst",
     each(_FLEET_KEYS, lambda c: c["scale_ups"] > 0 and c["peak_replicas"] > 1,
          where=where(kind="autoscale"))),
    ("The autoscaled fleet beats the static single replica's goodput",
     among(_FLEET_KEYS, [("autoscale", "p2c", 1), ("replicas", "p2c", 1)],
           lambda auto, static: auto["goodput"] > static["goodput"])),
    ("The Zipf-skewed trace earns result-cache hits in every cell",
     each(_FLEET_KEYS, lambda c: c["cache_hit_rate"] > 0.0)),
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


_SCALE_NODES = 1_000_000
_SCALE_CLAIMS = (
    Claim("Sampled training completes under the memory cap",
          on("training", each(_MODEL_FW, lambda c: c["under_cap"]))),
    Claim(f"On the {_SCALE_NODES:,}-node graph full-graph training provably cannot fit: its "
          "memory floor exceeds the cap",
          on("training", each(_MODEL_FW, lambda c: c["full_graph_exceeds_cap"],
                              where=lambda c: c["n_nodes"] >= _SCALE_NODES))),
    Claim("The compiled step replays across the varying sampled batch shapes",
          on("training", each(_MODEL_FW,
                              lambda c: c["replays"] > 0 and c["epochs_per_sec"] > 0))),
    Claim("Partitioned inference stays under the cap with no part above twice the mean edge "
          "load",
          on("partitioned", each(_MODEL_FW + ("k",),
                                 lambda c: c["under_cap"] and c["edge_balance"] < 2.0))),
    Claim("Sampled training evaluated through partitioned inference lands within the "
          "tolerance of the full-batch baseline",
          on("parity", each(_MODEL_FW,
                            lambda c: c["within_tolerance"] and c["gap"] <= c["tolerance"]))),
    Claim("Sampling shrinks the working set below the resident full graph",
          on("parity", each(_MODEL_FW, lambda c: c["sampled_peak_mb"] < c["full_peak_mb"]))),
)


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


_REPLICA_KEYS = ("model", "framework", "replicas")
_SCALING_CLAIMS = (
    Claim("DDP's epoch beats the serial-scatter DataParallel estimate at every point of the "
          "curve",
          on("cells", each(_REPLICA_KEYS, lambda c: c["beats_dataparallel"]))),
    Claim("Multi-replica DDP issues collectives and pays visible communication time",
          on("cells", each(_REPLICA_KEYS,
                           lambda c: c["comm_time"] > 0 and c["collectives"] > 0,
                           where=lambda c: c["replicas"] > 1))),
    Claim("DDP keeps scaling where DataParallel flattens: each doubling of replicas still "
          "cuts its epoch time",
          on("cells", paired(_REPLICA_KEYS, "replicas",
                             zip(scaling.SCALING_REPLICAS, scaling.SCALING_REPLICAS[1:]),
                             lambda fewer, more: more["ddp_epoch_time"]
                             < fewer["ddp_epoch_time"]))),
    Claim("At world_size=1 DDP reproduces the single-device loss trajectory and test "
          "accuracy bitwise",
          on("parity", each(("framework", "mode"),
                            lambda c: c["loss_bitwise_identical"] and c["test_acc_equal"]))),
)


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
_PACKS = {"models": MODEL_NAMES, "frameworks": FRAMEWORKS}
# The reductions EXPERIMENTS.md documents: the DD caps keep numpy training
# tractable and leave per-batch kernel sizes, which drive the figures, alone.
_SWEEP = {**_PACKS, "batch_sizes": (64, 128, 256), "num_graphs": {"dd": 200, "*": 0},
          "epochs": 1}
_TRAIN = {"datasets": ("enzymes",), "models": ("gcn", "gin"), "frameworks": FRAMEWORKS}
_SERVE = {"datasets": ("enzymes",), "models": ("gcn",), "frameworks": FRAMEWORKS,
          "queue_capacity": 128, "max_batch_size": 32}

EXPERIMENTS: Dict[str, Experiment] = {e.name: e for e in (
    Experiment(
        "table1",
        {"datasets": ("cora", "pubmed", "enzymes", "mnist", "dd"),
         "num_graphs": {"mnist": 1500, "*": 0}},
        _run_table1,
        lambda cells, p: render_table(
            TABLE1, cells, title="Table I: dataset statistics (measured vs paper)"),
        _TABLE1_CLAIMS,
    ),
    Experiment(
        "table4",
        {"datasets": ("cora", "pubmed"), **_PACKS, "epochs": 30,
         "seeds": {"cora": (0, 1), "*": (0,)}},
        _run_table4, _render_table4, _TABLE4_CLAIMS, **_CELLS_OUT,
    ),
    Experiment(
        "table5",
        {"datasets": ("enzymes", "dd"), **_PACKS, "num_graphs": {"dd": 200, "*": 0},
         "epochs": {"dd": 6, "*": 15}, "folds": 1},
        _run_table5,
        lambda cells, p: render_table(
            _timed_table(0, 0), cells,
            title="Table V: graph classification (reduced folds/epochs, simulated times)"),
        _TABLE5_CLAIMS, **_CELLS_OUT,
    ),
    Experiment("fig1", {"datasets": ("enzymes",), **_SWEEP}, _run_sweep,
               _render_breakdown("Fig. 1: per-epoch execution time breakdown, {datasets}{subset}"),
               _FIG1_CLAIMS),
    Experiment("fig2", {"datasets": ("dd",), **_SWEEP}, _run_sweep,
               _render_breakdown("Fig. 2: per-epoch execution time breakdown, {datasets}{subset}"),
               _FIG2_CLAIMS),
    Experiment(
        "fig3", {**_PACKS, "batch_size": 128, "num_graphs": 0}, _run_fig3,
        lambda cells, p: render_table(
            FIG3_TABLE, cells,
            title=f"Fig. 3: kernel time per layer, one ENZYMES batch ({p['batch_size']} graphs)"),
        _FIG3_CLAIMS,
    ),
    Experiment(
        "fig4", {"datasets": ("enzymes", "dd"), **_SWEEP}, _run_sweep,
        _render_sweep("Fig. 4: peak simulated device memory",
                      [("peak (MB)", lambda c: f"{c['peak_memory'] / 1e6:.0f}")], True),
        _FIG4_CLAIMS,
    ),
    Experiment(
        "fig5", {"datasets": ("enzymes", "dd"), **_SWEEP}, _run_sweep,
        _render_sweep("Fig. 5: GPU compute utilisation (Eq. 5)",
                      [("util (%)", lambda c: f"{c['gpu_utilization'] * 100:.1f}")], True),
        _FIG5_CLAIMS,
    ),
    Experiment(
        "fig6",
        {"models": ("gcn", "gat"), "frameworks": FRAMEWORKS, "batch_sizes": (128, 256, 512),
         "gpus": (1, 2, 4, 8), "num_graphs": 1000, "max_batches": 2},
        _run_fig6, _render_fig6, _FIG6_CLAIMS,
    ),
    Experiment(
        "ablation_batching",
        {"frameworks": FRAMEWORKS, "batch_sizes": (64, 128, 256), "num_graphs": 0},
        lambda p: ablations.batching_cells(p["frameworks"], p["batch_sizes"], p["num_graphs"]),
        _render_batching, _BATCHING_CLAIMS,
    ),
    Experiment(
        "ablation_spmm_fusion", {"widths": (32, 128), "num_graphs": 128},
        lambda p: ablations.spmm_fusion_cells(p["widths"], p["num_graphs"]),
        lambda cells, p: render_table(
            [("kind", lambda c: c["kind"]), ("width", lambda c: c["width"]),
             ("launches", lambda c: c["launches"]),
             ("kernel (us)", lambda c: f"{c['kernel_time'] * 1e6:.0f}"),
             ("elapsed (us)", lambda c: f"{c['elapsed'] * 1e6:.0f}")],
            sorted(cells, key=lambda c: (c["kind"], c["width"])),
            title="Ablation: fused GSpMM vs gather+scatter (ENZYMES batch, sum aggregation)"),
        _FUSION_CLAIMS,
    ),
    Experiment(
        "ablation_gatedgcn_edgefeat", {"frameworks": FRAMEWORKS, "batch_sizes": (64, 128)},
        lambda p: ablations.edgefeat_cells(p["frameworks"], p["batch_sizes"]),
        _render_edgefeat, _EDGEFEAT_CLAIMS,
    ),
    Experiment(
        "ablation_launch_overhead",
        {"overheads_us": (0.0, 35.0, 70.0), "batch_sizes": (64, 256), "num_graphs": 0,
         "epochs": 1},
        lambda p: ablations.launch_overhead_cells(
            p["overheads_us"], p["batch_sizes"], p["num_graphs"], p["epochs"]),
        _render_launch_overhead, _LAUNCH_OVERHEAD_CLAIMS,
    ),
    Experiment(
        # DD graphs average 284 nodes: ~4 500 and ~9 000 nodes a batch.  The
        # dense adjacency is quadratic in that; a paper-scale batch of 128
        # would not fit wall-clock in numpy.
        "ablation_dense_baseline",
        {"kinds": ("dense",) + FRAMEWORKS, "batch_sizes": (16, 32)},
        lambda p: ablations.dense_baseline_cells(p["kinds"], p["batch_sizes"]),
        lambda cells, p: render_table(
            [("implementation", lambda c: c["kind"]), ("batch", lambda c: c["batch_size"]),
             ("step (ms)", lambda c: f"{c['step_time'] * 1e3:.1f}"),
             ("peak (MB)", lambda c: f"{c['peak_memory'] / 1e6:.0f}")],
            cells,
            title="Ablation: GCN step on one DD batch, dense vs GNN frameworks"),
        _DENSE_CLAIMS,
    ),
    Experiment(
        "ablation_gpu_specs",
        {"datasets": ("enzymes", "dd"), "speeds": (0.5, 1.0, 4.0),
         "num_graphs": {"dd": 200, "*": 0}, "batch_size": 128, "epochs": 1},
        lambda p: ablations.gpu_speed_cells(
            {d: _per(p["num_graphs"], d) for d in p["datasets"]}, p["speeds"],
            p["batch_size"], p["epochs"]),
        _render_gpu_specs, _GPU_SPECS_CLAIMS,
    ),
    Experiment(
        "ablation_heterograph_types",
        {"type_counts": _HETERO_TYPES, "num_graphs": 256, "batch_size": 128},
        lambda p: ablations.heterograph_cells(
            p["type_counts"], p["num_graphs"], p["batch_size"]),
        _render_heterograph, _HETEROGRAPH_CLAIMS,
    ),
    Experiment(
        "extension_batching_optimizations", {"num_graphs": 0, "batch_size": 128, "epochs": 3},
        lambda p: ablations.batching_optimization_cells(
            p["num_graphs"], p["batch_size"], p["epochs"]),
        lambda cells, p: render_table(
            [("strategy", lambda c: _STRATEGY_LABELS[c["strategy"]]),
             ("epoch (ms)", lambda c: f"{c['epoch_time'] * 1e3:.1f}"),
             ("util (%)", lambda c: "-" if c["gpu_utilization"] is None
                                    else f"{c['gpu_utilization'] * 100:.1f}")],
            cells,
            title=f"Extension: batching optimisations, GCN on ENZYMES "
                  f"(batch {p['batch_size']})"),
        _BATCHING_OPT_CLAIMS,
    ),
    Experiment(
        "kernels",
        {"datasets": ("enzymes",), "models": ("gcn",), "frameworks": FRAMEWORKS,
         "batch_size": 128, "num_graphs": 0, "compiled": False, "top": 15},
        _run_kernels, _render_kernels,
    ),
    Experiment(
        "serving",
        {**_SERVE, "requests": _SERVING_REQUESTS, "rate": 2000.0, "num_graphs": 0,
         "burst": _BURST},
        _run_serving, _render_serving, _SERVING_CLAIMS,
        to_json=partial(document_to_json, "serving"),
    ),
    Experiment(
        "compile", {**_TRAIN, "batch_size": 128, "num_graphs": 256, "epochs": 2},
        _run_compile, _render_compile, _COMPILE_CLAIMS,
        to_json=partial(document_to_json, "compile"),
    ),
    Experiment(
        "faults",
        {**_SERVE, "requests": 300, "rate": 1500.0, "num_graphs": 120,
         "fault_rates": (0.0, 0.002, 0.01), "fault_seed": 0},
        _run_faults, _render_faults, _FAULTS_CLAIMS,
        to_json=partial(document_to_json, "faults"),
    ),
    Experiment(
        "overlap",
        {**_TRAIN, "batch_size": 16, "num_graphs": 0, "epochs": 2, "tolerance": 0.05},
        _run_overlap, _render_overlap, _OVERLAP_CLAIMS,
        to_json=partial(document_to_json, "overlap"),
    ),
    Experiment(
        "ops",
        # precisions=None: fp32 everywhere plus fp16 on the eager cells.
        {"shapes": tuple(sorted(ops.SHAPES)), "ops": ops.OPS, "frameworks": FRAMEWORKS,
         "modes": ops.MODES, "precisions": None},
        _run_ops, lambda doc, p: ops.ops_report(doc["cells"]), _OPS_CLAIMS,
        to_json=partial(document_to_json, "ops"),
    ),
    Experiment(
        "fleet",
        {"workload": fleet.fleet_document(())["workload"], "kinds": fleet.FLEET_KINDS,
         "replicas": fleet.REPLICA_SWEEP, "policies": POLICY_NAMES,
         "requests": fleet.TRACE_REQUESTS, "scale": fleet.TRACE_SCALE, "seed": 0,
         "chrome_trace": None},
        _run_fleet, lambda doc, p: fleet.fleet_report(doc["cells"]), _FLEET_CLAIMS,
        to_json=partial(document_to_json, "fleet"),
    ),
    Experiment(
        "scale",
        {"models": scale.SCALE_MODELS, "frameworks": FRAMEWORKS, "n_nodes": _SCALE_NODES,
         "memory_cap": scale.MEMORY_CAP_BYTES, "parts": 32, "smoke_nodes": 10_000,
         "tolerance": 0.02},
        _run_scale, _render_scale, _SCALE_CLAIMS,
        to_json=partial(document_to_json, "scale"),
    ),
    Experiment(
        "scaling",
        {"models": scaling.SCALING_MODELS, "frameworks": FRAMEWORKS,
         "replicas": scaling.SCALING_REPLICAS, "num_graphs": 1000, "global_batch": 256,
         "parity_graphs": 128},
        _run_scaling, _render_scaling, _SCALING_CLAIMS,
        to_json=partial(document_to_json, "scaling"),
    ),
)}


# ----------------------------------------------------------------------
# The paper document: every record above that reproduces the source paper
# ----------------------------------------------------------------------
#: ``BENCH_paper.json`` section -> the records that read it.  The first one's
#: protocol runs the section; Fig. 1/2/5 are views of the sweep Fig. 4 runs.
PAPER_SECTIONS = {
    "table1": ("table1",), "table4": ("table4",), "table5": ("table5",),
    "sweep": ("fig4", "fig1", "fig2", "fig5"), "fig3": ("fig3",), "fig6": ("fig6",),
    **{name: (name,) for name in EXPERIMENTS if name.startswith(("ablation_", "extension_"))},
}


def _paper_claims(sections) -> Tuple[Claim, ...]:
    """Each reader's claims, addressed to its section of the document."""
    return tuple(Claim(f"{name}: {claim.sentence}", on(section, claim.check))
                 for section, names in sections.items() for name in names
                 for claim in EXPERIMENTS[name].claims)


def _run_paper(p):
    body = {section: EXPERIMENTS[names[0]].run(EXPERIMENTS[names[0]].protocol)
            for section, names in p["sections"].items()}
    body["claims"] = [
        {"claim": claim.sentence, "holds": not offending, "offending": offending}
        for claim in _paper_claims(p["sections"])
        for offending in [claim.check(body)]
    ]
    return body


def _render_paper(body, p):
    return "\n\n".join(
        EXPERIMENTS[name].render(body[section], EXPERIMENTS[name].protocol)
        for section, names in p["sections"].items() for name in names
    )


EXPERIMENTS["paper"] = Experiment(
    "paper", {"sections": PAPER_SECTIONS}, _run_paper, _render_paper,
    _paper_claims(PAPER_SECTIONS), to_json=partial(document_to_json, "paper"),
)


def write_document(name: str, body, path) -> None:
    """Serialise ``body`` as experiment ``name``'s JSON, newline-terminated.

    The one ``BENCH_*.json`` writer: a gated record's serialiser validates
    the document against :mod:`repro.bench.spec` on the way out.
    """
    pathlib.Path(path).write_text(EXPERIMENTS[name].to_json(body) + "\n")
