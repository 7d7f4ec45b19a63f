"""Run the real command: one lap of one workload, every named metric present."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from hostbench.__main__ import CONTRACT_END_TO_END, ROOT, WORKLOAD_NAMES
from hostbench.metrics import END_TO_END, PER_LAYER, PER_LAYER_NAMES

WORKLOAD = "train_fullgraph"


def hostbench(*arguments):
    done = subprocess.run(
        [sys.executable, "-m", "hostbench", *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def test_workload_names_match_the_workload_table():
    from hostbench.workloads import SIZES, WORKLOADS

    assert tuple(WORKLOADS) == WORKLOAD_NAMES == tuple(SIZES)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS.values())


def test_one_lap_smoke_reports_every_end_to_end_metric(tmp_path):
    out = tmp_path / "run.json"
    stdout = hostbench("--workload", WORKLOAD, "--laps", "1", "--out", str(out))
    result = json.loads(out.read_text())["workloads"][WORKLOAD]
    expected = [m.name for m in END_TO_END if m.applies(WORKLOAD)]
    assert list(result["metrics"]) == expected
    assert all(name in stdout for name in expected)
    assert result["correct"] and result["failed"] == 0 and result["laps"] == 1
    assert result["metrics"]["failed_frac"]["value"] == 0.0
    assert result["metrics"]["setup_s"]["n"] == 3  # set-up is sampled in fresh interpreters

    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert tuple(line["metrics"]) == CONTRACT_END_TO_END
    assert all(cell["value"] > 0 for cell in line["metrics"].values())

    # Comparing a run with itself: every row ok, exit 0.
    table = hostbench("compare", str(out), str(out))
    assert "worse" not in table.replace("B worse by", "") and "ok" in table


@pytest.mark.parametrize("workload", [WORKLOAD])
def test_traced_smoke_reports_every_per_layer_metric(workload, tmp_path):
    out = tmp_path / "traced.json"
    stdout = hostbench("--workload", workload, "--trace", "1", "--out", str(out))
    line = json.loads(stdout.strip().splitlines()[-1])
    assert tuple(sorted(line["metrics"])) == tuple(sorted(PER_LAYER_NAMES))
    units = {name: unit for name, unit, _ in PER_LAYER}
    assert all(cell["unit"] == units[name] for name, cell in line["metrics"].items())
    layers = json.loads(out.read_text())["workloads"][workload]["per_layer"]
    assert layers["trace.unaccounted_frac"] < 0.02
    assert layers["device.launch_calls"] > 0 and layers["py.calls"] > 0
    assert layers["pygx.collate_batches"] == 0  # full-graph training has no loader
    events = json.loads((ROOT / "hostbench" / "results" / f"trace-{workload}.json").read_text())
    assert {e["name"] for e in events["traceEvents"]} >= {"lap", "train.loop", "nn.forward", "tensor.backward"}


def test_benchmark_json_is_a_projection_of_the_metric_tables():
    path = Path(ROOT) / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("no BENCHMARK.json beside hostbench/")
    from hostbench.workloads import WORKLOADS

    spec = json.loads(path.read_text())
    assert spec["paths"] == ["hostbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert tuple(m["name"] for m in spec["end_to_end"]) == CONTRACT_END_TO_END
    ours = {m.name: m for m in END_TO_END}
    assert all((m["unit"], m["better"]) == (ours[m["name"]].unit, ours[m["name"]].better) for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
