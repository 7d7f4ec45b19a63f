"""repro.bench.experiments in lock-step with the gate table, the committed
documents and the report CLI -- without running a full bench."""

from __future__ import annotations

import dataclasses
import glob
import json
import os

import pytest

from repro.bench import ops, tables
from repro.bench.experiments import EXPERIMENTS, write_document
from repro.bench.report import main
from repro.bench.spec import NUMERIC_ENV, SPECS

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
GATED = [name for name in EXPERIMENTS if name in SPECS]


def _committed(name):
    with open(os.path.join(REPO_ROOT, f"BENCH_{name}.json")) as fh:
        return json.load(fh)


def _values(cells, key):
    return {cell[key] for cell in cells}


class TestLockStep:
    def test_table_lists_every_experiment_once(self):
        assert len(EXPERIMENTS) == 27
        assert all(name == record.name for name, record in EXPERIMENTS.items())

    def test_gated_records_are_the_specs_are_the_committed_files(self):
        on_disk = {os.path.basename(p)[len("BENCH_"):-len(".json")]
                   for p in glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))}
        assert set(GATED) == set(SPECS) == on_disk

    def test_only_serialisable_records_offer_json(self):
        offered = {name for name, record in EXPERIMENTS.items() if record.to_json}
        assert offered == set(GATED) | {"table4", "table5"}
        assert {n for n, r in EXPERIMENTS.items() if r.to_csv} == {"table4", "table5"}

    @pytest.mark.parametrize("name", ["compile", "overlap"])
    def test_training_protocols_match_their_documents(self, name):
        p, cells = EXPERIMENTS[name].protocol, _committed(name)["cells"]
        assert _values(cells, "batch_size") == {p["batch_size"]}
        assert _values(cells, "model") == set(p["models"])
        assert _values(cells, "framework") == set(p["frameworks"])
        assert _values(cells, "dataset") == set(p["datasets"])
        assert all(len(c[k]) == p["epochs"] for c in cells for k in c if k.endswith("_losses"))

    def test_faults_protocol_matches_its_document(self):
        p, cells = EXPERIMENTS["faults"].protocol, _committed("faults")["cells"]
        assert _values(cells, "n_requests") == {p["requests"]}
        assert _values(cells, "fault_seed") == {p["fault_seed"]}
        assert _values(cells, "fault_rate") == set(p["fault_rates"])
        assert _values(cells, "model") == set(p["models"])
        assert len(cells) == len(p["fault_rates"]) * len(p["frameworks"])

    def test_serving_protocol_matches_its_document(self):
        p, entries = EXPERIMENTS["serving"].protocol, _committed("serving")
        *served, burst = entries
        assert _values(served, "n_requests") == {p["requests"]}
        assert [e["framework"] for e in served] == sorted(p["frameworks"] * 2)
        assert len(entries) == 2 * len(p["frameworks"]) * len(p["models"]) + 1
        assert burst["n_requests"] == p["burst"]["requests"]

    def test_scaling_protocol_matches_its_document(self):
        p, doc = EXPERIMENTS["scaling"].protocol, _committed("scaling")
        assert (doc["num_graphs"], doc["global_batch"]) == (p["num_graphs"], p["global_batch"])
        assert _values(doc["cells"], "global_batch") == {p["global_batch"]}
        assert _values(doc["cells"], "replicas") == set(p["replicas"])
        assert _values(doc["cells"], "model") == set(p["models"])

    def test_fleet_protocol_matches_its_document(self):
        p, doc = EXPERIMENTS["fleet"].protocol, _committed("fleet")
        assert doc["workload"] == p["workload"]
        assert _values(doc["cells"], "trace_scale") == {p["scale"]}
        assert _values(doc["cells"], "n_requests") == {p["requests"]}
        assert _values(doc["cells"], "kind") == set(p["kinds"])
        assert _values(doc["cells"], "policy") == set(p["policies"])

    def test_scale_protocol_matches_its_document(self):
        p, doc = EXPERIMENTS["scale"].protocol, _committed("scale")
        assert doc["memory_cap"] == p["memory_cap"]
        capped = doc["training"] + doc["partitioned"]
        assert _values(capped, "memory_cap") == {p["memory_cap"]}
        assert _values(capped, "n_nodes") == {p["n_nodes"]}
        assert _values(doc["partitioned"], "k") == {p["parts"]}
        assert _values(doc["parity"], "n_nodes") == {p["smoke_nodes"]}
        assert _values(doc["parity"], "tolerance") == {p["tolerance"]}

    def test_ops_protocol_matches_its_document(self):
        p, cells = EXPERIMENTS["ops"].protocol, _committed("ops")["cells"]
        for key, field in (("shapes", "shape"), ("ops", "op"), ("frameworks", "pack"),
                           ("modes", "mode")):
            assert _values(cells, field) == set(p[key]), key
        # precisions=None: fp16 rides along on the eager cells only.
        assert p["precisions"] is None
        assert {c["mode"] for c in cells if c["precision"] == "fp16"} == {"eager"}


#: name -> (a tiny override every flag of which the record accepts, a token
#: of the rendering).  Protocol keys no flag reaches (node counts, the global
#: batch, the projection tolerance a 3-batch epoch cannot meet, the sections
#: ``paper`` runs) are shrunk by patching records: SHRUNK[name] maps each
#: record to patch to its protocol overrides.
TINY = {
    "table1": (["--datasets", "cora", "enzymes"], "ENZYMES"),
    "table4": (["--datasets", "cora", "--models", "gcn", "--frameworks", "pygx",
                "--epochs", "2"], "Table IV"),
    "table5": (["--models", "gcn", "--frameworks", "pygx", "--epochs", "2",
                "--num-graphs", "24", "--folds", "1"], "Table V"),
    "fig1": (["--models", "gcn", "--frameworks", "pygx", "--batch-sizes", "16",
              "--num-graphs", "24"], "Fig. 1"),
    "fig2": (["--models", "gcn", "--frameworks", "dglx", "--batch-sizes", "8",
              "--num-graphs", "16"], "breakdown, DD"),
    "fig3": (["--models", "gcn", "--frameworks", "pygx", "--num-graphs", "32"], "conv1"),
    "fig4": (["--models", "gcn", "--frameworks", "pygx", "--batch-sizes", "8",
              "--num-graphs", "16"], "memory"),
    "fig5": (["--models", "gcn", "--frameworks", "pygx", "--batch-sizes", "8",
              "--num-graphs", "16"], "utilisation"),
    "fig6": (["--models", "gcn", "--frameworks", "pygx", "--num-graphs", "40",
              "--batch-sizes", "16"], "8gpu"),
    "ablation_batching": (["--batch-sizes", "16", "--num-graphs", "32"], "dgl/pyg"),
    "ablation_spmm_fusion": (["--num-graphs", "16"], "unfused"),
    "ablation_gatedgcn_edgefeat": (["--batch-sizes", "8"], "mem ratio"),
    "ablation_launch_overhead": (["--batch-sizes", "16", "--num-graphs", "32"],
                                 "launch overhead (us)"),
    "ablation_dense_baseline": (["--batch-sizes", "2"], "dense"),
    "ablation_gpu_specs": (["--datasets", "enzymes", "--num-graphs", "32",
                            "--batch-size", "16"], "speedup vs 1.0x"),
    "ablation_heterograph_types": (["--num-graphs", "16", "--batch-size", "8"], "vs 1 type"),
    "extension_batching_optimizations": (["--epochs", "2", "--num-graphs", "64"],
                                         "pipelined loader"),
    "serving": (["--frameworks", "pygx", "--requests", "10", "--num-graphs", "16"], "burst/b8"),
    "compile": (["--models", "gcn", "--frameworks", "pygx", "--num-graphs", "48",
                 "--batch-size", "32"], "exact"),
    "kernels": (["--frameworks", "pygx", "--num-graphs", "32", "--batch-size", "16",
                 "--top", "5"], "Top kernels"),
    "faults": (["--frameworks", "pygx", "--requests", "20", "--num-graphs", "16",
                "--fault-rates", "0", "0.01"], "0.010"),
    "overlap": (["--models", "gcn", "--frameworks", "pygx", "--num-graphs", "48"], "projected"),
    "ops": (["--shapes", "enzymes-b128", "--ops", "gemm", "h2d"], "Bottleneck summary"),
    "fleet": (["--kinds", "replicas", "chaos", "--replicas", "1", "2", "--requests", "60"],
              "Per-tenant"),
    "scale": (["--models", "gcn", "--frameworks", "pygx"], "Partitioned full-graph"),
    "scaling": (["--models", "gcn", "--frameworks", "pygx", "--replicas", "1", "2",
                 "--num-graphs", "64"], "world_size=1"),
    "paper": ([], "Fig. 5"),
}
_TINY_SWEEP = {"models": ("gcn",), "batch_sizes": (8,), "num_graphs": 16}
SHRUNK = {
    "overlap": {"overlap": {"tolerance": 1.0}},
    "scale": {"scale": {"n_nodes": 4000, "smoke_nodes": 600, "parts": 4, "tolerance": 1.0}},
    "scaling": {"scaling": {"global_batch": 16, "parity_graphs": 32}},
    # One shared sweep (four views) and one ablation: every path of the
    # document, none of its fifteen minutes.
    "paper": {
        "paper": {"sections": {"sweep": ("fig4", "fig1", "fig2", "fig5"),
                               "ablation_spmm_fusion": ("ablation_spmm_fusion",)}},
        **{name: _TINY_SWEEP for name in ("fig1", "fig2", "fig4", "fig5")},
        "ablation_spmm_fusion": {"num_graphs": 16},
    },
}


class TestEveryRecordRuns:
    def test_tiny_table_covers_every_record(self):
        assert set(TINY) == set(EXPERIMENTS)

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_runs_through_the_cli_and_rows_match_headers(
        self, name, capsys, tmp_path, monkeypatch
    ):
        for patched, overrides in SHRUNK.get(name, {}).items():
            record = EXPERIMENTS[patched]
            monkeypatch.setitem(EXPERIMENTS, patched, dataclasses.replace(
                record, protocol={**record.protocol, **overrides}))
        if name == "paper":  # ... and its spec with it, so the document still validates
            ran = set(EXPERIMENTS["paper"].protocol["sections"]) | {"claims"}
            monkeypatch.setitem(SPECS, "paper", dataclasses.replace(
                SPECS["paper"],
                sections=tuple(s for s in SPECS["paper"].sections if s.path in ran)))
        widths = []
        format_table = tables.format_table

        def checked(headers, rows, title=""):
            widths.extend((len(headers), len(row)) for row in rows)
            return format_table(headers, rows, title=title)

        for module in (tables, ops):  # every importer of the name
            monkeypatch.setattr(module, "format_table", checked)
        monkeypatch.chdir(tmp_path)
        argv, token = TINY[name]
        assert main([name, *argv]) == 0
        assert token in capsys.readouterr().out
        assert widths and all(header == row for header, row in widths)
        # An overridden protocol never lands on a committed document's name;
        # the bare (shrunk) paper run is the one that writes its document.
        assert os.listdir(tmp_path) == (["BENCH_paper.json"] if name == "paper" else [])


    def test_a_finished_run_with_failures_exits_1(self, capsys):
        # Three batches per epoch cannot amortise the pipeline fill, so the
        # executed overlap misses the 5% projection bound.
        argv, _ = TINY["overlap"]
        assert main(["overlap", *argv]) == 1
        captured = capsys.readouterr()
        assert "projected" in captured.out  # the table is still printed
        assert ("ERROR: The executed overlapped epoch lands within the tolerance of the "
                "projection -- fails for gcn/pygx/False, gcn/pygx/True") in captured.err


class TestWriteDocument:
    def test_bare_gated_run_writes_the_document_with_a_newline(
        self, capsys, tmp_path, monkeypatch
    ):
        record = EXPERIMENTS["compile"]
        tiny = {**record.protocol, "models": ("gcn",), "frameworks": ("pygx",),
                "num_graphs": 48, "batch_size": 32}
        monkeypatch.setitem(EXPERIMENTS, "compile", dataclasses.replace(record, protocol=tiny))
        monkeypatch.chdir(tmp_path)
        assert main(["compile"]) == 0
        text = (tmp_path / "BENCH_compile.json").read_text()
        assert text.endswith("}\n") and not text.endswith("\n\n")
        assert json.loads(text)["experiment"] == "compile"
        assert "wrote BENCH_compile.json" in capsys.readouterr().out

    def test_every_committed_document_ends_with_one_newline(self):
        for name in GATED:
            with open(os.path.join(REPO_ROOT, f"BENCH_{name}.json")) as fh:
                text = fh.read()
            assert text.endswith("\n") and not text.endswith("\n\n"), name

    def test_writer_validates_against_the_spec(self, tmp_path):
        with pytest.raises(ValueError, match="missing field"):
            write_document("compile", {"cells": [{"model": "gcn"}]}, tmp_path / "x.json")

    @pytest.mark.parametrize("name", GATED)
    def test_committed_document_is_the_writers_bytes(self, name, tmp_path):
        # CI diffs a regenerated document against the committed one byte
        # for byte, so the committed copy must be exactly what the writer
        # emits: a hand edit or another JSON layout would show as a diff.
        with open(os.path.join(REPO_ROOT, f"BENCH_{name}.json"), "rb") as fh:
            committed = fh.read()
        out = tmp_path / f"BENCH_{name}.json"
        write_document(name, json.loads(committed), out)
        assert out.read_bytes() == committed

    @pytest.mark.parametrize("key, value", [
        *((key, None) for key in NUMERIC_ENV),
        ("OPENBLAS_NUM_THREADS", "2"),
        ("OMP_NUM_THREADS", "4"),
        ("MKL_NUM_THREADS", "0"),
        ("OPENBLAS_CORETYPE", "SkylakeX"),
        ("NPY_DISABLE_CPU_FEATURES", "X86_V4"),
    ], ids=lambda v: "unset" if v is None else v)
    def test_committed_document_needs_every_setting(self, key, value, monkeypatch):
        # Each setting is required on its own, at exactly its pinned value;
        # the refusal names only what is off.
        for name, pinned in NUMERIC_ENV.items():
            monkeypatch.setenv(name, pinned)
        if value is None:
            monkeypatch.delenv(key)
        else:
            monkeypatch.setenv(key, value)
        committed = os.path.join(REPO_ROOT, "BENCH_scale.json")
        with pytest.raises(RuntimeError, match="committed BENCH_scale.json") as refused:
            write_document("scale", _committed("scale"), committed)
        message = str(refused.value)
        assert f"{key}={NUMERIC_ENV[key]!r}" in message
        assert all(name not in message for name in NUMERIC_ENV if name != key)

    def test_committed_document_is_refused_under_any_spelling(self, monkeypatch):
        # Neither a relative path nor another experiment's name writes a
        # committed document from an unpinned process.
        for name in NUMERIC_ENV:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.chdir(os.path.join(REPO_ROOT, "src"))
        before = open(os.path.join(REPO_ROOT, "BENCH_compile.json"), "rb").read()
        with pytest.raises(RuntimeError, match="committed BENCH_compile.json"):
            write_document("compile", _committed("compile"), "../BENCH_compile.json")
        with pytest.raises(RuntimeError, match="committed BENCH_compile.json"):
            write_document("serving", _committed("serving"),
                           os.path.join(REPO_ROOT, "BENCH_compile.json"))
        assert open(os.path.join(REPO_ROOT, "BENCH_compile.json"), "rb").read() == before
