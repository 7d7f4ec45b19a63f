"""Every claim of every record holds on the committed documents and can fail.

Table-driven, no record is run: the body each record is checked against is
the one in its committed ``BENCH_*.json`` (``BENCH_paper.json`` for the
paper's tables, figures and ablations).  ``DOCTORS[name][i]`` breaks
exactly what claim ``i`` of record ``name`` states — the winner flipped,
GatedGCN no longer the slowest DGL model, ENZYMES utilisation at 0.46 —
and returns the labels the claim must then name.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import os

import pytest

from repro.bench.experiments import EXPERIMENTS, PAPER_SECTIONS
from repro.bench.report import main
from repro.bench.spec import SPECS

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SECTION_OF = {reader: section for section, readers in PAPER_SECTIONS.items()
              for reader in readers}


@functools.lru_cache(maxsize=None)
def _document(name):
    with open(os.path.join(REPO_ROOT, SPECS[name].filename)) as fh:
        return json.load(fh)


def committed_body(name):
    """A private copy of what record ``name`` renders and checks."""
    body = _document(name) if name in SPECS else _document("paper")[SECTION_OF[name]]
    return copy.deepcopy(body)


def pick(cells, **match):
    found = [c for c in cells if all(c[k] == v for k, v in match.items())]
    assert found, match
    return found


def put(cells, changes, **match):
    """Set ``changes`` (values, or functions of the cell) on the matching cells."""
    for cell in pick(cells, **match):
        for key, value in changes.items():
            cell[key] = value(cell) if callable(value) else value


def swap(cells, field, a, b):
    """Exchange ``field`` between the cells matching ``a`` and ``b`` (one each)."""
    (x,), (y,) = pick(cells, **a), pick(cells, **b)
    x[field], y[field] = y[field], x[field]


def scaled(field, factor):
    return {field: lambda c: c[field] * factor}


CORA_GCN = dict(dataset="cora", model="gcn")
ENZ_GCN_64 = dict(dataset="enzymes", model="gcn", batch_size=64)


def _in(section, doctor):
    return lambda body: doctor(body[section])


def _swap_frameworks(field, label, **match):
    def doctor(cells):
        swap(cells, field, dict(framework="pygx", **match), dict(framework="dglx", **match))
        return [label]
    return doctor


def _put(changes, labels, **match):
    def doctor(cells):
        put(cells, changes, **match)
        return labels
    return doctor


DOCTORS = {
    "table1": [
        _put({"avg_nodes": 40.0}, ["ENZYMES"], dataset="ENZYMES"),
        _put({"num_features": 499}, ["PubMed"], dataset="PubMed"),
    ],
    "table4": [
        _swap_frameworks("measured", "cora/gcn/pygx->dglx", **CORA_GCN),
        _put({"acc_mean": 0.1}, ["cora/gcn/pygx->dglx"], framework="dglx", **CORA_GCN),
        _put(scaled("measured", 0.1), ["cora/dglx/gatedgcn"],
             dataset="cora", model="gatedgcn", framework="dglx"),
        _put(scaled("measured", 0.6), ["cora/gatedgcn/pygx->dglx"],
             dataset="cora", model="gatedgcn", framework="dglx"),
        _put({"acc_mean": 0.2}, ["cora/gat/pygx"], dataset="cora", model="gat",
             framework="pygx"),
    ],
    "table5": [
        _swap_frameworks("measured", "dd/gat/pygx->dglx", dataset="dd", model="gat"),
        _put({"acc_mean": 0.0}, ["enzymes/gin/pygx->dglx"], dataset="enzymes", model="gin",
             framework="pygx"),
        _put(scaled("measured", 0.5), ["enzymes/dglx/gatedgcn"],
             dataset="enzymes", model="gatedgcn", framework="dglx"),
        _put(scaled("measured", 0.1), ["dd/gcn/pygx", "enzymes/gcn/pygx"],
             dataset="dd", model="gcn", framework="pygx"),
        _put({"ratio": 1.9}, ["enzymes/sage/dglx"], dataset="enzymes", model="sage",
             framework="dglx"),
    ],
    "fig1": [
        _swap_frameworks("data_loading", "enzymes/gcn/64/pygx->dglx", **ENZ_GCN_64),
        _put({"forward": 1.0}, ["enzymes/gcn/dglx/64"], framework="dglx", **ENZ_GCN_64),
        _put(scaled("forward", 0.1), ["enzymes/gcn/pygx/64->256"], framework="pygx",
             **ENZ_GCN_64),
        _put(scaled("data_loading", 2.0), ["enzymes/gcn/pygx/64->256"],
             dataset="enzymes", model="gcn", framework="pygx", batch_size=256),
    ],
    "fig2": [
        _swap_frameworks("epoch_time", "dd/gin/128/pygx->dglx", dataset="dd", model="gin",
                         batch_size=128),
        _put({"forward": 0.0, "backward": 0.0}, ["dd/sage/dglx/64->256"],
             dataset="dd", model="sage", framework="dglx", batch_size=256),
    ],
    "fig4": [
        _put({"peak_memory": 1}, ["dd/dglx/256/gatedgcn"],
             dataset="dd", model="gatedgcn", framework="dglx", batch_size=256),
        _put(scaled("peak_memory", 3.0), ["enzymes/gatedgcn/64/pygx->dglx"],
             dataset="enzymes", model="gatedgcn", framework="pygx", batch_size=64),
        _put(scaled("peak_memory", 0.3), ["enzymes/monet/pygx/64->256"],
             dataset="enzymes", model="monet", framework="pygx", batch_size=256),
        _put({"peak_memory": 3e9}, ["dd/gin/pygx/128"],
             dataset="dd", model="gin", framework="pygx", batch_size=128),
        _put({"peak_memory": 1}, ["gat/pygx/128/enzymes->dd"],
             dataset="dd", model="gat", framework="pygx", batch_size=128),
    ],
    "fig5": [
        _put({"gpu_utilization": 0.46}, ["enzymes/gcn/dglx/64"], framework="dglx",
             **ENZ_GCN_64),
        _swap_frameworks("gpu_utilization", "enzymes/gcn/64/pygx->dglx", **ENZ_GCN_64),
        _put({"gpu_utilization": 0.0}, ["gcn/pygx/128/enzymes->dd"],
             dataset="dd", model="gcn", framework="pygx", batch_size=128),
        _put({"gpu_utilization": 0.0}, ["enzymes/dglx/128/gatedgcn"],
             dataset="enzymes", model="gatedgcn", framework="dglx", batch_size=128),
    ],
    "fig3": [
        _put({"conv1": 0.0, "conv2": 0.0, "conv3": 0.0, "conv4": 0.0}, ["sage/pygx->dglx"],
             model="sage", framework="dglx"),
        _swap_frameworks("pooling", "gat/pygx->dglx", model="gat"),
        _put({"conv3": 0.0}, ["monet/pygx"], model="monet", framework="pygx"),
        _put(scaled("conv1", 0.5), ["gin/dglx"], model="gin", framework="dglx"),
    ],
    "fig6": [
        _put(scaled("epoch_time", 1.5), ["gat/dglx/256/2->4"],
             model="gat", framework="dglx", batch_size=256, n_gpus=4),
        _put(scaled("epoch_time", 0.5), ["gcn/pygx/128/4->8"],
             model="gcn", framework="pygx", batch_size=128, n_gpus=8),
        _put(scaled("epoch_time", 0.4), ["gcn/dglx/512/1->4"],
             model="gcn", framework="dglx", batch_size=512, n_gpus=4),
    ],
    "ablation_batching": [
        _put(scaled("seconds", 10.0), ["128/pygx->dglx"], framework="dglx", batch_size=128),
        _put(scaled("seconds", 2.0), ["pygx/64->256"], framework="pygx", batch_size=256),
    ],
    "ablation_spmm_fusion": [
        _put({"max_abs_diff": 0.01}, ["unfused/32"], kind="unfused", width=32),
        _put({"launches": 5}, ["128/fused->unfused"], kind="fused", width=128),
        _put({"kernel_time": 0.0}, ["fused/32"], kind="fused", width=32),
    ],
    "ablation_gatedgcn_edgefeat": [
        _swap_frameworks("step_time", "64/pygx->dglx", batch_size=64),
        _swap_frameworks("peak_memory", "128/pygx->dglx", batch_size=128),
    ],
    "ablation_launch_overhead": [
        _put(scaled("fwd_bwd", 0.1), ["0.0/64->256"], launch_overhead_us=0.0, batch_size=256),
        _put(scaled("fwd_bwd", 0.1),
             ["0.0/64", "0.0/256", "35.0/64", "35.0/256", "70.0/64", "70.0/256"],
             launch_overhead_us=35.0, batch_size=256),
        _put(scaled("fwd_bwd", 2.0), ["70.0/64->256"], launch_overhead_us=70.0, batch_size=256),
    ],
    "ablation_dense_baseline": [
        _put(scaled("step_time", 0.1), ["dense/32", "pygx/32"], kind="dense", batch_size=32),
        _put(scaled("peak_memory", 0.1), ["dense/32", "pygx/32"], kind="dense", batch_size=32),
        _put(scaled("peak_memory", 3.0), ["dense/16", "pygx/16", "dense/32", "pygx/32"],
             kind="dense", batch_size=16),
    ],
    "ablation_gpu_specs": [
        _put(scaled("epoch_time", 0.1), ["dd/0.5->1.0"], dataset="dd", speed=0.5),
        _put(scaled("epoch_time", 0.1), ["enzymes/1.0->4.0"], dataset="enzymes", speed=4.0),
        _put(scaled("epoch_time", 0.7), ["dd/1.0", "dd/4.0", "enzymes/1.0", "enzymes/4.0"],
             dataset="enzymes", speed=4.0),
    ],
    "ablation_heterograph_types": [
        _put(scaled("seconds", 0.1), ["2->4"], edge_types=4),
        _put(scaled("seconds", 0.5), ["1->8"], edge_types=8),
    ],
    "extension_batching_optimizations": [
        _put(scaled("epoch_time", 2.0), ["standard->cached"], strategy="cached"),
        _put(scaled("first_epoch_time", 2.0), ["standard->cached"], strategy="cached"),
        _put({"gpu_utilization": 0.0}, ["standard->cached"], strategy="cached"),
        _put(scaled("epoch_time", 0.1), ["pipelined"], strategy="pipelined"),
    ],
    # Serving cells are positional: dglx b1, dglx b32, pygx b1, pygx b32, burst.
    "serving": [
        lambda cells: put(cells[:1], {"completed": lambda c: c["completed"] - 1})
        or ["enzymes/gcn/dglx/unbatched"],
        lambda cells: put(cells[:1], {"shed": 0}) or ["enzymes/gcn/dglx/unbatched->batched"],
        lambda cells: put(cells[1:2], {"throughput": cells[0]["throughput"]})
        or ["enzymes/gcn/dglx/unbatched->batched"],
        lambda cells: cells[3]["phase_times"].update(forward=0.0)
        or ["enzymes/gcn/pygx/batched"],
        lambda cells: put(cells[4:], {"max_queue_depth": 33}) or ["enzymes/gcn/pygx/burst"],
        lambda cells: put(cells[3:4], {"throughput": 1.0})
        or ["enzymes/gcn/batched/pygx->dglx"],
    ],
    "compile": [_in("cells", doctor) for doctor in (
        _put({"parity": False}, ["gcn/pygx"], model="gcn", framework="pygx"),
        _put({"launch_reduction": 0.3}, ["gin/dglx"], model="gin", framework="dglx"),
        _put(scaled("compiled_epoch_time", 2.0), ["gcn/dglx"], model="gcn", framework="dglx"),
        _put({"guard_failures": 1}, ["gin/pygx"], model="gin", framework="pygx"),
        _put({"launch_reduction": 0.0}, ["pygx/gcn->gin"], model="gin", framework="pygx"),
    )],
    "faults": [_in("cells", _put({"resolved": 0}, ["gcn/pygx/0.002"],
                                 framework="pygx", fault_rate=0.002))],
    "overlap": [_in("cells", doctor) for doctor in (
        _put({"parity": False}, ["gcn/pygx/False"],
             model="gcn", framework="pygx", compiled=False),
        _put({"within_projection": False}, ["gin/dglx/True"],
             model="gin", framework="dglx", compiled=True),
        _put({"speedup": 0.9}, ["gcn/pygx/True"], model="gcn", framework="pygx", compiled=True),
        _put({"speedup": 1.0}, ["gin/True/pygx->dglx"],
             model="gin", framework="dglx", compiled=True),
    )],
    "ops": [_in("cells", doctor) for doctor in (
        _put({"launches": 3}, ["gspmm/eager/cora/fp32/pygx->dglx"],
             op="gspmm", pack="pygx", mode="eager", shape="cora", precision="fp32"),
        _put({"launches": 2}, ["sddmm/eager/pubmed/fp32/pygx->dglx"],
             op="sddmm", pack="dglx", mode="eager", shape="pubmed", precision="fp32"),
        _put({"launches": 2}, ["elementwise/pygx/cora/fp32/eager->compiled"],
             op="elementwise", pack="pygx", mode="compiled", shape="cora", precision="fp32"),
        _put({"launches": 9}, ["scatter_reduce/dglx/eager/dd-b128/fp32->fp16"],
             op="scatter_reduce", pack="dglx", mode="eager", shape="dd-b128",
             precision="fp16"),
        _put(scaled("wall_time", 1.5), ["gspmm/pygx/eager/pubmed/fp32->fp16"],
             op="gspmm", pack="pygx", mode="eager", shape="pubmed", precision="fp16"),
        _put(scaled("wall_time", 1.01), ["gemm/pygx/eager/enzymes-b128/fp32->fp16"],
             op="gemm", pack="pygx", mode="eager", shape="enzymes-b128", precision="fp16"),
        _put({"bound": "bandwidth"}, ["gspmm/eager/enzymes-b128/fp32/pygx->dglx"],
             op="gspmm", pack="dglx", mode="eager", shape="enzymes-b128", precision="fp32"),
        _put(scaled("wall_time", 10.0), ["gspmm/eager/dd-b128/fp32/pygx->dglx"],
             op="gspmm", pack="pygx", mode="eager", shape="dd-b128", precision="fp32"),
        _put({"bound": "bandwidth"}, ["gemm/pygx/eager/cora/fp32"],
             op="gemm", pack="pygx", mode="eager", shape="cora", precision="fp32"),
        _put({"bound": "compute"}, ["sddmm/dglx/compiled/rmat-4k/fp32"],
             op="sddmm", pack="dglx", mode="compiled", shape="rmat-4k", precision="fp32"),
        _put({"bound": "launch"}, ["h2d/pygx/eager/cora/fp32"],
             op="h2d", pack="pygx", mode="eager", shape="cora", precision="fp32"),
    )],
    "fleet": [_in("cells", doctor) for doctor in (
        _put({"resolved": 0}, ["replicas/p2c/2"], kind="replicas", replicas=2),
        _put({"goodput": 0.0}, ["replicas/p2c/2->4"], kind="replicas", replicas=4),
        _put({"p99": 10.0}, ["replicas/p2c/1->8"], kind="replicas", replicas=8),
        _put({"p99": 0.0},
             ["policy/8/round_robin->p2c", "policy/8/round_robin->least_loaded"],
             kind="policy", policy="round_robin"),
        _put({"replica_losses": 1}, ["chaos/p2c/4"], kind="chaos"),
        _put({"scale_ups": 0}, ["autoscale/p2c/1"], kind="autoscale"),
        _put({"goodput": 0.0}, ["autoscale/p2c/1", "replicas/p2c/1"], kind="autoscale"),
        _put({"cache_hit_rate": 0.0}, ["policy/least_loaded/8"], kind="policy",
             policy="least_loaded"),
    )],
    "scale": [
        _in("training", _put({"under_cap": False}, ["gcn/pygx"], model="gcn",
                             framework="pygx")),
        _in("training", _put({"full_graph_exceeds_cap": False}, ["sage/dglx"],
                             model="sage", framework="dglx")),
        _in("training", _put({"replays": 0}, ["gcn/dglx"], model="gcn", framework="dglx")),
        _in("partitioned", _put({"edge_balance": 2.5}, ["gcn/pygx/32"], k=32)),
        _in("parity", _put({"within_tolerance": False}, ["sage/pygx"],
                           model="sage", framework="pygx")),
        _in("parity", _put({"sampled_peak_mb": 1e9}, ["gcn/dglx"], model="gcn",
                           framework="dglx")),
    ],
    "scaling": [
        _in("cells", _put({"beats_dataparallel": False}, ["gcn/pygx/4"],
                          model="gcn", framework="pygx", replicas=4)),
        _in("cells", _put({"comm_time": 0.0}, ["gat/dglx/2"],
                          model="gat", framework="dglx", replicas=2)),
        _in("cells", _put(scaled("ddp_epoch_time", 10.0), ["gcn/pygx/4->8"],
                          model="gcn", framework="pygx", replicas=8)),
        _in("parity", _put({"loss_bitwise_identical": False}, ["pygx/eager"],
                           framework="pygx", mode="eager")),
    ],
}
CASES = [(name, index) for name, record in EXPERIMENTS.items() if name != "paper"
         for index in range(len(record.claims))]


def test_every_claim_has_a_doctor():
    assert ({name: len(doctors) for name, doctors in DOCTORS.items()}
            == {name: len(record.claims) for name, record in EXPERIMENTS.items()
                if record.claims and name != "paper"})


@pytest.mark.parametrize("name,index", CASES, ids=[f"{n}-{i}" for n, i in CASES])
def test_claim_holds_as_committed_and_fails_when_doctored(name, index):
    record = EXPERIMENTS[name]
    claim = record.claims[index]
    body = committed_body(name)
    assert claim.check(body) == [], claim.sentence
    named = DOCTORS[name][index](body)
    assert claim.check(body) == named, claim.sentence
    assert f"{claim.sentence} -- fails for {', '.join(named)}" in record.failures(body)



class TestPaperDocument:
    def test_claim_rows_are_the_readers_claims_and_all_hold(self):
        rows = _document("paper")["claims"]
        assert [row["claim"] for row in rows] == [
            f"{name}: {claim.sentence}"
            for names in PAPER_SECTIONS.values() for name in names
            for claim in EXPERIMENTS[name].claims]
        assert all(row["holds"] and row["offending"] == [] for row in rows)

    def test_a_flipped_winner_fails_the_paper_record_through_its_reader(self):
        body = committed_body("paper")
        DOCTORS["table4"][0](body["table4"])
        sentence = EXPERIMENTS["table4"].claims[0].sentence
        assert EXPERIMENTS["paper"].failures(body) == [
            f"table4: {sentence} -- fails for cora/gcn/pygx->dglx"]


def _swap_all_frameworks(cells):
    """Every cell reports the other framework's numbers."""
    other = {"pygx": "dglx", "dglx": "pygx"}
    for cell in cells:
        cell["framework"] = other[cell["framework"]]


class TestTheCliTellsTheTruth:
    """The record's ``run`` is replaced by the committed body: nothing runs."""

    @pytest.fixture
    def experiments_md(self):
        with open(os.path.join(REPO_ROOT, "EXPERIMENTS.md")) as fh:
            return fh.read()

    @pytest.mark.parametrize("name", [n for n in EXPERIMENTS if n != "kernels"])
    def test_bare_run_prints_the_committed_table_and_exits_0(
        self, name, experiments_md, capsys, tmp_path, monkeypatch
    ):
        body = committed_body(name)
        monkeypatch.setitem(EXPERIMENTS, name,
                            dataclasses.replace(EXPERIMENTS[name], run=lambda p: body))
        monkeypatch.chdir(tmp_path)
        assert main([name]) == 0
        out = capsys.readouterr().out.split("\nwrote BENCH_")[0]
        tables = out.split("\n\n") if name == "paper" else [out]
        assert all(table.strip() in experiments_md for table in tables)

    @pytest.mark.parametrize("name,index", [
        ("table4", 0), ("table5", 0), ("fig1", 0), ("fig2", 0), ("fig3", 0), ("fig5", 1),
        ("ablation_batching", 0), ("ablation_gatedgcn_edgefeat", 0)])
    def test_swapped_frameworks_exit_1_with_the_sentence(self, name, index, capsys,
                                                         monkeypatch):
        body = committed_body(name)
        _swap_all_frameworks(body)
        monkeypatch.setitem(EXPERIMENTS, name,
                            dataclasses.replace(EXPERIMENTS[name], run=lambda p: body))
        assert main([name]) == 1
        assert f"ERROR: {EXPERIMENTS[name].claims[index].sentence} -- fails for " in (
            capsys.readouterr().err)
