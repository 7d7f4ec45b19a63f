"""The command-line report tool (python -m repro.bench.report)."""

import json

import pytest

from repro.bench.report import EXPERIMENTS, _parser, _resolve_defaults, main
from repro.models import MODEL_NAMES


class TestReportCLI:
    def test_table1_subset(self, capsys):
        assert main(["table1", "--datasets", "cora", "enzymes"]) == 0
        out = capsys.readouterr().out
        assert "Cora" in out and "ENZYMES" in out

    def test_table4_with_json_and_csv(self, capsys, tmp_path):
        json_path = tmp_path / "t4.json"
        csv_path = tmp_path / "t4.csv"
        code = main(
            [
                "table4",
                "--datasets",
                "cora",
                "--models",
                "gcn",
                "--frameworks",
                "pygx",
                "--epochs",
                "2",
                "--json",
                str(json_path),
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        data = json.loads(json_path.read_text())
        assert data[0]["model"] == "gcn"
        assert csv_path.read_text().startswith("dataset,model,framework")
        assert "Table IV" in capsys.readouterr().out

    def test_table5_quick(self, capsys):
        code = main(
            [
                "table5",
                "--datasets",
                "enzymes",
                "--models",
                "gcn",
                "--frameworks",
                "pygx",
                "--epochs",
                "2",
                "--num-graphs",
                "24",
                "--folds",
                "1",
            ]
        )
        assert code == 0
        assert "Table V" in capsys.readouterr().out

    def test_fig1_breakdown_chart(self, capsys):
        code = main(
            [
                "fig1",
                "--models",
                "gcn",
                "--frameworks",
                "pygx",
                "--batch-sizes",
                "16",
                "--num-graphs",
                "24",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "legend:" in out
        assert "data_loading" in out

    def test_fig3_table(self, capsys):
        code = main(
            ["fig3", "--models", "gcn", "--frameworks", "pygx", "--num-graphs", "32"]
        )
        assert code == 0
        assert "conv1" in capsys.readouterr().out

    def test_fig2_small(self, capsys):
        code = main(
            [
                "fig2",
                "--models",
                "gcn",
                "--frameworks",
                "dglx",
                "--batch-sizes",
                "8",
                "--num-graphs",
                "16",
            ]
        )
        assert code == 0
        assert "dd" in capsys.readouterr().out.lower()

    def test_fig6_small(self, capsys):
        code = main(["fig6", "--models", "gcn", "--frameworks", "pygx", "--num-graphs", "40",
                     "--batch-sizes", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "8gpu" in out

    @pytest.mark.parametrize("experiment,token", [("fig4", "memory"), ("fig5", "utilisation")])
    def test_resource_figures(self, capsys, experiment, token):
        code = main(
            [experiment, "--models", "gcn", "--frameworks", "pygx",
             "--batch-sizes", "8", "--num-graphs", "16"]
        )
        assert code == 0
        assert token in capsys.readouterr().out

    def test_compile_experiment_writes_json(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        json_path = tmp_path / "BENCH_compile.json"
        code = main(
            [
                "compile",
                "--models",
                "gcn",
                "--frameworks",
                "pygx",
                "--num-graphs",
                "48",
                "--batch-size",
                "32",
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro.compile" in out
        assert "exact" in out
        data = json.loads(json_path.read_text())
        cell = data["cells"][0]
        assert cell["parity"] is True
        assert cell["eager_launches_per_step"] > cell["compiled_launches_per_step"]
        assert cell["launch_reduction"] > 0

    def test_compile_default_output_name(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["compile", "--models", "gcn", "--frameworks", "dglx",
             "--num-graphs", "32", "--batch-size", "16"]
        )
        assert code == 0
        assert (tmp_path / "BENCH_compile.json").exists()

    @pytest.mark.parametrize("extra", [[], ["--compiled"]])
    def test_kernels_top_table(self, capsys, extra):
        code = main(
            ["kernels", "--models", "gcn", "--frameworks", "pygx",
             "--num-graphs", "32", "--batch-size", "16", "--top", "5"] + extra
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Top kernels" in out
        assert "launches" in out
        if extra:
            assert "fused[" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig9"])

    def test_experiment_registry(self):
        assert set(EXPERIMENTS) >= {"table1", "table4", "table5", "fig1", "fig2",
                                    "fig3", "fig4", "fig5", "fig6", "serve",
                                    "compile", "kernels"}


class TestExplicitDefaultsAreHonoured:
    """Flags used to be compared against their default to decide whether
    the user passed them, so passing the default explicitly was ignored."""

    def test_serve_with_every_model_runs_every_model(self, capsys, tmp_path):
        json_path = tmp_path / "serving.json"
        code = main(
            ["serve", "--models", *MODEL_NAMES, "--frameworks", "pygx",
             "--requests", "10", "--num-graphs", "16", "--json", str(json_path)]
        )
        assert code == 0
        served = [entry["model"] for entry in json.loads(json_path.read_text())]
        assert served[::2] == list(MODEL_NAMES)  # one b1 + one b32 cell each

    def test_overlap_batch_size_128_runs_batch_128(self, capsys, tmp_path):
        json_path = tmp_path / "BENCH_overlap.json"
        main(
            ["overlap", "--models", "gcn", "--frameworks", "pygx",
             "--num-graphs", "48", "--batch-size", "128", "--json", str(json_path)]
        )
        cells = json.loads(json_path.read_text())["cells"]
        assert {c["batch_size"] for c in cells} == {128}

    @pytest.mark.parametrize(
        "experiment,models,batch_sizes,batch_size",
        [
            ("table4", list(MODEL_NAMES), [64, 128, 256], 128),
            ("fig1", list(MODEL_NAMES), [64, 128, 256], 128),
            ("fig6", list(MODEL_NAMES), [128, 256, 512], 128),
            ("serve", ["gcn"], [64, 128, 256], 128),
            ("faults", ["gcn"], [64, 128, 256], 128),
            ("kernels", ["gcn"], [64, 128, 256], 128),
            ("compile", ["gcn", "gin"], [64, 128, 256], 128),
            ("overlap", ["gcn", "gin"], [64, 128, 256], 16),
        ],
    )
    def test_unset_flags_keep_their_per_experiment_defaults(
        self, experiment, models, batch_sizes, batch_size
    ):
        args = _parser().parse_args([experiment])
        _resolve_defaults(args)
        assert args.models == models
        assert args.batch_sizes == batch_sizes
        assert args.batch_size == batch_size

    def test_fig6_explicit_common_batch_sizes_are_kept(self):
        args = _parser().parse_args(["fig6", "--batch-sizes", "64", "128", "256"])
        _resolve_defaults(args)
        assert args.batch_sizes == [64, 128, 256]
