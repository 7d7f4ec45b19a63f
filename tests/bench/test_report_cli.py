"""The command-line report tool (python -m repro.bench.report)."""

import json
import os
import runpy
import subprocess
import sys

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.bench.report import main
from repro.bench.spec import NUMERIC_ENV
from repro.models import MODEL_NAMES

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


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
        assert "Compiled vs eager" in out
        assert "exact" in out
        data = json.loads(json_path.read_text())
        cell = data["cells"][0]
        assert cell["parity"] is True
        assert cell["eager_launches_per_step"] > cell["compiled_launches_per_step"]
        assert cell["launch_reduction"] > 0

    def test_overridden_run_does_not_write_the_default_document(
        self, capsys, tmp_path, monkeypatch
    ):
        # A quick reduced run must not clobber a committed baseline: the
        # default BENCH_<name>.json path is for the bare protocol only.
        monkeypatch.chdir(tmp_path)
        code = main(
            ["compile", "--models", "gcn", "--frameworks", "dglx",
             "--num-graphs", "32", "--batch-size", "16"]
        )
        assert code == 0
        assert "Compiled vs eager" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

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

    def test_serve_is_now_serving(self):
        # Record names are the SPECS tags; there is no alias.
        with pytest.raises(SystemExit):
            main(["serve"])
        assert "serving" in EXPERIMENTS


class TestFlagsThatDoNotApplyAreUsageErrors:
    """Flags used to be accepted and silently ignored by experiments that
    never read them (``fig3 --json``, ``table1 --fault-rates``)."""

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["table1", "--fault-rates", "0.5"], ["--fault-rates", "'table1'"]),
            (["fig1", "--folds", "2"], ["--folds", "'fig1'"]),
            (["ops", "--num-graphs", "8"], ["--num-graphs", "'ops'"]),
            (["compile", "--compiled"], ["--compiled", "'compile'"]),
            (["fig3", "--json", "out.json"], ["--json", "'fig3'"]),
            (["kernels", "--csv", "out.csv"], ["--csv", "'kernels'"]),
            (["compile", "--csv", "out.csv"], ["--csv", "'compile'"]),
        ],
    )
    def test_exit_2_naming_flag_and_experiment(self, argv, named, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert all(token in err for token in named), err
        assert list(tmp_path.iterdir()) == []  # rejected before anything ran


class TestExplicitDefaultsAreHonoured:
    """Flags used to be compared against their default to decide whether
    the user passed them, so passing the default explicitly was ignored.
    Now a record's ``protocol`` holds its defaults and only the flags the
    user passed are overlaid on it."""

    def test_serving_with_every_model_runs_every_model(self, capsys, tmp_path):
        json_path = tmp_path / "serving.json"
        code = main(
            ["serving", "--models", *MODEL_NAMES, "--frameworks", "pygx",
             "--requests", "10", "--num-graphs", "16", "--json", str(json_path)]
        )
        assert code == 0
        *served, burst = json.loads(json_path.read_text())
        assert [entry["model"] for entry in served][::2] == list(MODEL_NAMES)  # b1 + b32 each
        assert burst["model"] == MODEL_NAMES[0]

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
            ("table4", MODEL_NAMES, None, None),
            ("fig1", MODEL_NAMES, (64, 128, 256), None),
            ("fig6", ("gcn", "gat"), (128, 256, 512), None),
            ("serving", ("gcn",), None, None),
            ("faults", ("gcn",), None, None),
            ("kernels", ("gcn",), None, 128),
            ("compile", ("gcn", "gin"), None, 128),
            ("overlap", ("gcn", "gin"), None, 16),
        ],
    )
    def test_protocols_keep_their_per_experiment_defaults(
        self, experiment, models, batch_sizes, batch_size
    ):
        # A key a record does not read is absent, not defaulted: the flag
        # for it is a usage error (TestFlagsThatDoNotApplyAreUsageErrors).
        protocol = EXPERIMENTS[experiment].protocol
        assert protocol["models"] == models
        assert protocol.get("batch_sizes") == batch_sizes
        assert protocol.get("batch_size") == batch_size

    def test_fig6_explicit_common_batch_sizes_are_kept(self, capsys):
        code = main(["fig6", "--models", "gcn", "--frameworks", "pygx", "--num-graphs", "40",
                     "--batch-sizes", "64", "128", "256"])
        assert code == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[3:]]
        assert [row[2] for row in rows] == ["64", "128", "256"]  # not fig6's own 128/256/512


class _Execed(Exception):
    pass


class TestPinnedEntryPoint:
    """``python -m repro.bench.report`` runs under ``NUMERIC_ENV`` whatever
    the shell exported: BLAS and numpy read it at load time, so the CLI
    re-executes itself rather than setting it in process."""

    @pytest.fixture
    def execve(self, monkeypatch):
        calls = []

        def record(*args):
            calls.append(args)
            raise _Execed

        monkeypatch.setattr(os, "execve", record)
        # A fresh module body per run, as ``python -m`` would execute it.
        monkeypatch.delitem(sys.modules, "repro.bench.report")
        return calls

    def test_unpinned_run_reexecutes_itself_under_the_constant(self, execve, monkeypatch):
        for key in NUMERIC_ENV:
            monkeypatch.delenv(key, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
        monkeypatch.setenv("REPRO_UNRELATED", "kept")
        with pytest.raises(_Execed):
            runpy.run_module("repro.bench.report", run_name="__main__")
        [(executable, argv, env)] = execve
        assert (executable, argv) == (sys.executable, sys.orig_argv)
        assert {key: env[key] for key in NUMERIC_ENV} == NUMERIC_ENV
        assert env["REPRO_UNRELATED"] == "kept"

    def test_pinned_run_stays_in_process(self, execve, monkeypatch, capsys):
        for key, value in NUMERIC_ENV.items():
            monkeypatch.setenv(key, value)
        monkeypatch.setattr(sys, "argv", ["report", "table1", "--datasets", "cora"])
        with pytest.raises(SystemExit) as done:
            runpy.run_module("repro.bench.report", run_name="__main__")
        assert done.value.code == 0 and execve == []
        assert "Cora" in capsys.readouterr().out

    def test_reexecuted_run_does_not_loop(self):
        env = {key: value for key, value in os.environ.items() if key not in NUMERIC_ENV}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-m", "repro.bench.report", "--help"],
            env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage:")
