"""Render EXPERIMENTS.md from the nine committed ``BENCH_*.json`` documents.

    python tools/build_experiments_md.py

Runs no experiment: each section is a record of
``repro.bench.experiments.EXPERIMENTS`` rendering the body loaded from its
committed document (``BENCH_paper.json`` for the paper's tables, figures
and ablations), followed by the record's claims, re-checked against that
body.  What is written by hand here is only what a document cannot say
about itself: how a protocol was reduced and where a result deviates from
the paper.  ``tests/tools/test_build_experiments_md.py`` holds the
committed EXPERIMENTS.md to this rendering byte for byte.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.bench.experiments import EXPERIMENTS  # noqa: E402
from repro.bench.serialize import document_from_json  # noqa: E402
from repro.bench.spec import SPECS  # noqa: E402

HEADER = """\
# EXPERIMENTS — paper vs measured

Every table and figure of *Performance Analysis of Graph Neural Network
Frameworks* (ISPASS 2021) on the from-scratch substrate described in
DESIGN.md, plus the ablations and extensions built on it.  This file is
rendered by `tools/build_experiments_md.py` from the nine committed
`BENCH_*.json` documents and nothing else: each table below is what
`python -m repro.bench.report <name>` prints for the record named in its
heading, and the claims under it are the ones that command checks (exit 1
on a contradiction) and `tools/check_bench_regression.py` gates in CI.

**Reading guide.** All times and memory figures are *simulated device
observables* (DESIGN.md section 2): they come from a calibrated cost model
driven by the real sequence of operations each framework implementation
executes, not from wall-clock measurement.  Absolute values therefore only
match the paper's order of magnitude; the claims under test are the
*shapes* — who wins, by what factor, where the crossovers sit.  Accuracy
numbers are real numpy training runs on the synthetic datasets.

**Reduced protocols.** Paper-scale runs (200-epoch node training x 4
seeds, 10-fold CV, 70 000 MNIST graphs) cost CPU-hours in pure numpy, so
every record runs a documented reduction (its `protocol`; noted per
section below).  The reductions never change what drives the performance
results (model shapes, batch sizes, per-batch kernel sizes are all
paper-exact).
"""

#: record -> (heading, reduction / deviation note), in document order.
SECTIONS = {
    "table1": (
        "Table I — dataset statistics",
        """Reduction: MNIST averages are computed on a 1 500-graph sample of the
70 000-graph generator (the graph-count column reports the full size).
Deviation: the DD node-count tail is clipped at ~1 200 nodes (paper max
5 748) to keep numpy training tractable, preserving the mean.""",
    ),
    "table4": (
        "Table IV — node classification (Cora, PubMed)",
        """Reduction: 30 epochs (paper: 200), 2 seeds on Cora / 1 on PubMed; the
epoch time includes the per-epoch validation pass, as in the pipelines the
paper instruments.  Deviation: the low-learning-rate models (SAGE and
GatedGCN, lr = 1e-3) are *undertrained* at the 30-epoch cap — their
accuracy column is far below the paper's; during calibration the same
configurations reached the 75-95 % band at 80-200 epochs.  Both frameworks
are equally undertrained, so the parity claim is unaffected.""",
    ),
    "table5": (
        "Table V — graph classification (ENZYMES, DD)",
        """Reduction: 1 of 10 CV folds with a 15-epoch cap on ENZYMES; 1 fold, a
6-epoch cap and a 200-graph subset on DD.  Epoch *times* are unaffected by
the caps; accuracies are partially converged, and the DD fold's test split
has only 20 graphs, so its accuracy column is noisy — the claim is
framework *parity*, not absolute level.""",
    ),
    "fig1": (
        "Fig. 1 — execution-time breakdown per epoch, ENZYMES",
        """Reduction: one timing epoch per configuration — the same sweep cells
Fig. 4 and Fig. 5 read.""",
    ),
    "fig2": (
        "Fig. 2 — execution-time breakdown per epoch, DD",
        """Reduction: 200-graph DD subset, one timing epoch (per-batch kernel sizes,
which drive the contrast with Fig. 1, are unchanged).""",
    ),
    "fig3": (
        "Fig. 3 — layer-wise execution time, one ENZYMES batch",
        """One profiled forward/backward/update step after a warm-up step; elapsed
time attributed to module scopes (the nvprof/NVTX analogue).""",
    ),
    "fig4": (
        "Fig. 4 — peak memory vs batch size",
        """Reduction: the Fig. 1/2 sweeps (200-graph DD subset).  As in the paper,
DGL's peak is above PyG's in every cell.  The tape saves only what each
backward reads, so the PyG-style pipeline's scattered (E, H, D) messages
are freed during the forward.  DGL's modelled GSpMM workspace/frame stays
allocated until its backward runs.""",
    ),
    "fig5": (
        "Fig. 5 — GPU compute utilisation (Eq. 5)",
        """Reduction: the Fig. 1/2 sweeps.  Deviations: our DD subset reaches
~50-58 % for GAT/GatedGCN under PyG (the paper: mostly ≤ 40 % — the
simulated DD loading cost is low relative to its kernel sizes), and in PyG
the paper names GIN the highest-utilisation model while here GAT's large
edge tensors give it the edge.""",
    ),
    "fig6": (
        "Fig. 6 — multi-GPU (DataParallel) scaling, MNIST",
        """Reduction: 1 000-graph MNIST subset, 2 measured batches per
configuration scaled to a full epoch.  Deviation: our 1→2 GPU gains for
GAT are somewhat larger than the paper's "slight" decreases.""",
    ),
    "ablation_batching": (
        "Ablation — batching strategy in isolation",
        """The two loaders alone (no model, no training) over the full ENZYMES
set: the part of the framework gap the paper attributes to data
processing.""",
    ),
    "ablation_spmm_fusion": (
        "Ablation — fused GSpMM vs gather+scatter",
        """Identical sum aggregation both ways on one 128-graph ENZYMES batch: the
two sides of the PyG/DGL kernel trade visible in Fig. 3 — fewer launches
against a generic sparse kernel's lower achieved bandwidth.""",
    ),
    "ablation_gatedgcn_edgefeat": (
        "Ablation — GatedGCN's edge-feature path",
        """One training step with (dglx) and without (pygx) the mandatory
edge-feature state — the paper's observation 3 isolated to its cause.""",
    ),
    "ablation_launch_overhead": (
        "Ablation — kernel-launch overhead sensitivity",
        """The ENZYMES GCN epoch replayed on GPU specs with the launch overhead
swept from 0 to 70 µs: the mechanism behind the Fig. 1 vs Fig. 2
contrast.""",
    ),
    "ablation_dense_baseline": (
        "Ablation — dense (general-purpose framework) baseline",
        """The paper's premise quantified: the same GCN step with dense
block-diagonal adjacency matmuls (how a general-purpose DL framework does
it) against the two GNN frameworks.  Reduction: DD batches of 16 and 32
graphs (~4 500 and ~9 000 nodes); the dense form of a paper-scale batch of
128 does not fit wall-clock in numpy.""",
    ),
    "ablation_gpu_specs": (
        "Ablation — GPU-speed sensitivity",
        """Observation 6 made causal: the GCN epoch on cards with 0.5x, 1x and 4x
the 2080 Ti's FLOPs and bandwidth, host costs fixed.  Reduction: 200-graph
DD subset.""",
    ),
    "ablation_heterograph_types": (
        "Ablation — the heterograph tax",
        """The same 256 ENZYMES graphs recast as k-relation heterographs through the
full multi-type machinery: the paper's "treated as heterogeneous graphs ...
extra-time loss" made directly measurable.""",
    ),
    "extension_batching_optimizations": (
        "Extension — batching optimisations (paper's future work)",
        """The paper's conclusion calls for "more efficient graph batching
strategies": a collate-once/replay loader, and the projection of what a
pipelined loader could achieve (executed for real in the overlap section
below).""",
    ),
    "serving": (
        "Extension — dynamic-batching inference serving (`repro.serve`)",
        """The training-side result (small-graph workloads are launch-bound)
applied to inference: a 1 000-request Poisson trace against briefly-trained
GCN/ENZYMES models, served request-at-a-time (`b1`) and dynamically
batched (`b32`), plus an over-capacity bursty trace against a bounded
queue.""",
    ),
    "compile": (
        "Extension — compiled training steps (`repro.compile`)",
        """The lever the launch-bound finding points at: capture the step's kernel
stream, run DCE/CSE/folding/fusion, replay the fused schedule.  GCN and
GIN on 256 ENZYMES graphs (batch 128, 2 epochs).""",
    ),
    "faults": (
        "Extension — serving under injected faults (`repro.faults`)",
        """A 300-request trace under seeded OOM / kernel-fault / stall schedules
at three fault rates; retries, batch splits and the circuit breaker are
the recovery paths.""",
    ),
    "overlap": (
        "Extension — executed loader/compute overlap (Section IV-D)",
        """Section IV-D names pipelined data loading as the missing optimisation
behind the paper's low GPU utilisation; here it is *executed* rather than
projected.  `PrefetchDataLoader` collates batch i+1 on a worker stream and
copies it over PCIe while batch i computes (double-buffered, depth 2), for
GCN and GIN under both framework packs, eager and compiled, against the
`max(loading, everything else)` projection bound.""",
    ),
    "scale": (
        "Extension — million-node scale: sampling + partitioning (`repro.scale`)",
        """The paper stops at graphs that fit one device; this extension runs
the regime where they don't.  A seeded 1M-node / ~15.7M-edge R-MAT graph
(CSR-built, no dense intermediates) trains GCN and GraphSAGE under both
framework packs on a device capped at 2 GB via fanout-sampled mini-batches
(`NeighborLoader` → `SampledNodeTrainer`, fanout 10×10, batch 1024)
composed with `compile=True` and `prefetch=True`.  Full-graph inference
runs partition-by-partition over a degree-balanced 32-way row-block split
with per-part halo exchange, one part device-resident at a time.
Reduction: sampled-vs-full parity is measured on a 10k-node smoke graph,
where the full-batch baseline still fits.""",
    ),
    "scaling": (
        "Extension — DDP data parallelism vs DataParallel (`repro.dist`, Fig. 6 extended)",
        """Fig. 6's DataParallel barely scales because scatter, gather and the
full-batch host collation all stay serial.  This extension builds the
modern recipe the paper predates and runs it against that baseline on
the same 1 000-graph MNIST subset and global batch (256): per-replica
loader shards, real micro-batch training on every replica, and a
`DistributedDataParallel` wrapper that packs gradients into size-capped
buckets and ring/tree all-reduces each bucket over a modelled NVLink
fabric *while backward still runs*.  Collective numerics are a fixed-order
float32 left-fold regardless of schedule, making gradients bitwise
identical across world sizes and algorithms.""",
    ),
    "ops": (
        "Extension — operation-level roofline attribution (`repro.bench.ops`)",
        """The paper attributes framework gaps to whole training phases; the
op-level benchmarking literature (Magnifying Glass, arXiv 2211.03021)
goes one level down: the individual kernels the frameworks are built from
— GSpMM, GSDDMM (docs/kernels.md), scatter/segment reduce, dense GEMM, the
unfused elementwise chain, H2D copies — across the paper's five dataset
shapes plus R-MAT synthetics, both packs, eager and compiled, at fp32 and
(for the eager cells) in the device's fp16 roofline mode, each classified
against the simulated RTX 2080 Ti's roofline (ridge point 21.8 FLOP/byte)
as launch-, bandwidth- or compute-bound.  fp16 scales accounting, not
arithmetic: losses stay bitwise-identical.""",
    ),
    "fleet": (
        "Extension — multi-replica serving fleet (`repro.fleet`)",
        """A bursty three-tenant trace (gold diurnal + two offset flash crowds)
against N trained DD/GCN replicas behind a router, each replica forwarding
on its own device stream.  The grid sweeps replica count (1/2/4/8 under
`p2c`), routing policy at 8 replicas, a chaos cell (seeded replica losses
composed with `repro.faults` device faults) and an autoscale cell
(queue-depth-driven, warm starts priced by the device cost model).""",
    ),
}


def render() -> str:
    """EXPERIMENTS.md as the committed documents have it."""
    documents = {name: document_from_json(name, (ROOT / spec.filename).read_text())
                 for name, spec in SPECS.items()}
    section_of = {reader: section
                  for section, readers in EXPERIMENTS["paper"].protocol["sections"].items()
                  for reader in readers}
    parts = [HEADER]
    for name, (title, note) in SECTIONS.items():
        record = EXPERIMENTS[name]
        body = documents[name] if name in documents else documents["paper"][section_of[name]]
        parts.append(f"\n## {title}\n\n`{name}` — {note.strip()}\n")
        parts.append(f"\n```\n{record.render(body, record.protocol).strip()}\n```\n")
        if record.claims:
            parts.append("\nClaims:\n\n")
        for claim in record.claims:
            offending = claim.check(body)
            failed = f" — **FAILS for {', '.join(offending)}**" if offending else ""
            parts.append(f"- {claim.sentence}{failed}\n")
    return "".join(parts)


def main() -> int:
    try:
        text = render()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (ROOT / "EXPERIMENTS.md").write_text(text)
    print(f"wrote {ROOT / 'EXPERIMENTS.md'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
