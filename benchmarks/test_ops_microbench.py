"""Operation-level microbenchmarks — the op-by-op magnifying glass.

Times the kernels GNN frameworks are built from (GSpMM, GSDDMM attention
logits, scatter/segment reduce, dense GEMM, elementwise chains, H2D
copies) across the paper's five dataset shapes plus the R-MAT synthetics,
on both framework packs, eager and compiled, in fp32 plus the fp16
roofline mode on the eager cells, and attributes every cell to its
roofline bound: launch-, bandwidth- or compute-bound on the simulated
RTX 2080 Ti.

Writes ``benchmarks/results/ops_microbench.txt`` and the machine-readable
grid ``BENCH_ops.json`` at the repo root (the ops-bench CI gate diffs wall
clock, launch counts and bound classes against the committed copy).
"""

from repro.bench.ops import bound_summary


def test_ops_microbench(run_document):
    cells = run_document("ops", "ops_microbench")["cells"]

    by_key = {
        (c["op"], c["pack"], c["mode"], c["shape"], c["precision"]): c
        for c in cells
    }

    def cell(op, pack, mode, shape, precision="fp32"):
        return by_key[(op, pack, mode, shape, precision)]

    # Full coverage: every op classified on both packs, no gaps.
    # 8 shapes x (6 ops x 2 packs x 2 modes - 2 h2d-compiled) fp32 cells
    # plus 8 x 6 x 2 fp16 eager cells.
    assert len(cells) == 8 * 22 + 8 * 12
    for c in cells:
        assert c["bound"] in ("launch", "bandwidth", "compute")

    for shape in ("cora", "pubmed", "enzymes-b128", "mnist-b128", "dd-b128"):
        # Section IV-C: the gather->scatter SpMM lowering pays two
        # launches per propagation where fused GSpMM pays one.
        pyg = cell("gspmm", "pygx", "eager", shape)
        dgl = cell("gspmm", "dglx", "eager", shape)
        assert (pyg["launches"], dgl["launches"]) == (2, 1), shape

        # The SDDMM attention logits follow the same dichotomy, wider:
        # DGL's fused GSDDMM pays one launch, PyG's unfused composition
        # pays four (gather, gather, mul, sum).
        pyg = cell("sddmm", "pygx", "eager", shape)
        dgl = cell("sddmm", "dglx", "eager", shape)
        assert (pyg["launches"], dgl["launches"]) == (4, 1), shape

        # Fusion collapses the 4-launch elementwise chain to one kernel.
        eager = cell("elementwise", "pygx", "eager", shape)
        fused = cell("elementwise", "pygx", "compiled", shape)
        assert (eager["launches"], fused["launches"]) == (4, 1), shape
        assert fused["wall_time"] < eager["wall_time"], shape

    # fp16 roofline mode: tensor bytes halve, numerics do not change.
    # Bandwidth-bound cells approach the full 2x; launch-bound cells are
    # pinned to launch overhead and do not move at all.
    for c in cells:
        if c["precision"] != "fp16":
            continue
        f32 = cell(c["op"], c["pack"], c["mode"], c["shape"])
        speedup = f32["wall_time"] / c["wall_time"]
        assert c["launches"] == f32["launches"], c["shape"]
        if f32["bound"] == "bandwidth" and c["bound"] == "bandwidth":
            assert speedup > 1.5, (c["op"], c["pack"], c["shape"], speedup)
        if f32["bound"] == "launch" and c["bound"] == "launch":
            # Overhead-pinned: clearly short of the bandwidth-bound wins.
            assert speedup < 1.5, (c["op"], c["pack"], c["shape"], speedup)
    big_f32 = cell("gspmm", "pygx", "eager", "pubmed")
    big_f16 = cell("gspmm", "pygx", "eager", "pubmed", "fp16")
    assert big_f32["wall_time"] / big_f16["wall_time"] > 1.9
    # A purely launch-bound GEMM does not move at all under fp16.
    tiny = cell("gemm", "pygx", "eager", "enzymes-b128")
    assert tiny["wall_time"] == cell(
        "gemm", "pygx", "eager", "enzymes-b128", "fp16")["wall_time"]

    # Neither lowering dominates — the paper's mixed per-dataset wins.
    # Fused GSpMM wins where launches dominate (small graph batches);
    # the unfused gather/scatter pair, running at higher per-kernel
    # efficiency, wins the feature-heavy bandwidth-bound datasets.
    for shape in ("enzymes-b128", "mnist-b128"):
        pyg = cell("gspmm", "pygx", "eager", shape)
        dgl = cell("gspmm", "dglx", "eager", shape)
        assert dgl["bound"] == "launch" and dgl["wall_time"] < pyg["wall_time"], shape
    for shape in ("cora", "pubmed", "dd-b128"):
        pyg = cell("gspmm", "pygx", "eager", shape)
        dgl = cell("gspmm", "dglx", "eager", shape)
        assert pyg["bound"] == "bandwidth" and pyg["wall_time"] < dgl["wall_time"], shape

    # The paper's small-batch regime: tiny graph batches are launch-bound
    # while the 1433-wide Cora GEMM sits far right of the ridge point.
    assert cell("gemm", "pygx", "eager", "enzymes-b128")["bound"] == "launch"
    assert cell("gemm", "pygx", "eager", "cora")["bound"] == "compute"

    # Sparse propagation never becomes compute-bound at GNN intensities,
    # and copies sit on the PCIe roofline (zero-FLOP by construction).
    for c in cells:
        if c["op"] in ("gspmm", "sddmm", "scatter_reduce"):
            assert c["bound"] in ("launch", "bandwidth"), c["shape"]
        if c["op"] == "h2d":
            assert c["flops"] == 0.0

    # Large feature-heavy transfers saturate the link instead of latency.
    assert cell("h2d", "pygx", "eager", "cora")["bound"] == "bandwidth"

    # Every (op, pack) pair lands in at least one bound class somewhere.
    summary = bound_summary(cells)
    for hist in summary.values():
        assert sum(hist.values()) > 0
