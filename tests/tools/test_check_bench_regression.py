"""The bench-regression gate: green on committed baselines, red on the
synthetic 20% regression fixture, and sane on hand-built documents."""

from __future__ import annotations

import importlib.util
import json
import os
import sys

import pytest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
TOOL_PATH = os.path.join(REPO_ROOT, "tools", "check_bench_regression.py")
FIXTURE_DIR = os.path.join(
    REPO_ROOT, "tests", "fixtures", "bench_regression", "regressed"
)


def _load_tool():
    spec = importlib.util.spec_from_file_location("check_bench_regression", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclass field resolution looks the module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tool = _load_tool()


def test_committed_baselines_pass_against_themselves(capsys):
    rc = tool.main(["--baseline-dir", REPO_ROOT, "--current-dir", REPO_ROOT])
    assert rc == 0
    out = capsys.readouterr().out
    assert "within tolerance" in out


def test_synthetic_20pct_regression_fixture_fails(capsys):
    rc = tool.main(["--baseline-dir", REPO_ROOT, "--current-dir", FIXTURE_DIR])
    assert rc == 1
    out = capsys.readouterr().out
    # Every bench kind regressed in the fixture.
    assert "shed_fraction" in out
    assert "compiled_launches_per_step" in out
    assert "goodput" in out


def test_fixture_regressions_are_20_percent():
    """The fixture really encodes ~20% moves, comfortably past the 10% gate."""
    baseline = json.load(open(os.path.join(REPO_ROOT, "BENCH_compile.json")))
    regressed = json.load(open(os.path.join(FIXTURE_DIR, "BENCH_compile.json")))
    for base, cur in zip(baseline["cells"], regressed["cells"]):
        ratio = cur["compiled_launches_per_step"] / base["compiled_launches_per_step"]
        assert ratio == pytest.approx(1.2, abs=0.02)


def test_single_file_mode(tmp_path):
    base = os.path.join(REPO_ROOT, "BENCH_compile.json")
    assert tool.main(["--baseline", base, "--current", base]) == 0
    bad = os.path.join(FIXTURE_DIR, "BENCH_compile.json")
    assert tool.main(["--baseline", base, "--current", bad]) == 1


def test_within_tolerance_changes_pass(tmp_path):
    """A 5% drift on a gated fraction stays under the 10% gate."""
    serving = json.load(open(os.path.join(REPO_ROOT, "BENCH_serving.json")))
    drifted = json.loads(json.dumps(serving))
    entry = next(e for e in drifted if e["shed"])
    extra = int(round(0.05 * entry["completed"]))
    entry["shed"] += extra
    entry["completed"] -= extra
    cur = tmp_path / "BENCH_serving.json"
    cur.write_text(json.dumps(drifted))
    base = os.path.join(REPO_ROOT, "BENCH_serving.json")
    assert tool.main(["--baseline", base, "--current", str(cur)]) == 0


def test_missing_cell_is_a_regression(tmp_path):
    base = os.path.join(REPO_ROOT, "BENCH_compile.json")
    doc = json.load(open(base))
    doc["cells"] = doc["cells"][1:]
    cur = tmp_path / "BENCH_compile.json"
    cur.write_text(json.dumps(doc))
    assert tool.main(["--baseline", base, "--current", str(cur)]) == 1


def test_lost_requests_flagged_even_without_metric_drift(tmp_path):
    """faults cells must keep the no-silent-loss invariant: resolved == n."""
    base = os.path.join(REPO_ROOT, "BENCH_faults.json")
    doc = json.load(open(base))
    doc["cells"][0]["resolved"] -= 1
    cur = tmp_path / "BENCH_faults.json"
    cur.write_text(json.dumps(doc))
    rc = tool.main(["--baseline", base, "--current", str(cur)])
    assert rc == 1


def test_parity_flip_is_exact_gated(tmp_path):
    base = os.path.join(REPO_ROOT, "BENCH_compile.json")
    doc = json.load(open(base))
    assert doc["cells"][0]["parity"] is True
    doc["cells"][0]["parity"] = False
    cur = tmp_path / "BENCH_compile.json"
    cur.write_text(json.dumps(doc))
    assert tool.main(["--baseline", base, "--current", str(cur)]) == 1


def test_ops_fixture_flags_sddmm_and_fp16_cells(capsys):
    """The ops fixture regresses the new sddmm and fp16 columns too: a
    bound flip on an fp16 cell and a launch bump on the fused sddmm."""
    base = os.path.join(REPO_ROOT, "BENCH_ops.json")
    bad = os.path.join(FIXTURE_DIR, "BENCH_ops.json")
    rc = tool.main(["--baseline", base, "--current", bad])
    assert rc == 1
    out = capsys.readouterr().out
    assert "ops[sddmm/dglx/eager/fp16/cora]" in out
    assert "ops[sddmm/dglx/eager/fp32/cora]" in out
    assert "bound" in out and "launches" in out


def test_ops_precision_axis_is_part_of_the_key(tmp_path):
    """Dropping every fp16 cell is a regression (the fp32 twins of the
    same (op, pack, mode, shape) must not mask them) — unless the run is
    declared a reduced --subset grid."""
    base = os.path.join(REPO_ROOT, "BENCH_ops.json")
    doc = json.load(open(base))
    doc["cells"] = [c for c in doc["cells"] if c["precision"] == "fp32"]
    cur = tmp_path / "BENCH_ops.json"
    cur.write_text(json.dumps(doc))
    assert tool.main(["--baseline", base, "--current", str(cur)]) == 1
    assert tool.main(["--baseline", base, "--current", str(cur),
                      "--subset"]) == 0


def test_scaling_fixture_regressions_flagged(capsys):
    """The scaling fixture flips the beat-the-baseline and parity gates
    and drops the speedup by ~20%."""
    base = os.path.join(REPO_ROOT, "BENCH_scaling.json")
    bad = os.path.join(FIXTURE_DIR, "BENCH_scaling.json")
    rc = tool.main(["--baseline", base, "--current", bad])
    assert rc == 1
    out = capsys.readouterr().out
    assert "beats_dataparallel" in out
    assert "speedup_vs_dp" in out
    assert "loss_bitwise_identical" in out


def test_scaling_parity_flip_is_exact_gated(tmp_path):
    base = os.path.join(REPO_ROOT, "BENCH_scaling.json")
    doc = json.load(open(base))
    assert doc["parity"][0]["loss_bitwise_identical"] is True
    doc["parity"][0]["loss_bitwise_identical"] = False
    cur = tmp_path / "BENCH_scaling.json"
    cur.write_text(json.dumps(doc))
    assert tool.main(["--baseline", base, "--current", str(cur)]) == 1


def test_scaling_missing_replica_cell_is_a_regression(tmp_path):
    base = os.path.join(REPO_ROOT, "BENCH_scaling.json")
    doc = json.load(open(base))
    doc["cells"] = doc["cells"][1:]
    cur = tmp_path / "BENCH_scaling.json"
    cur.write_text(json.dumps(doc))
    assert tool.main(["--baseline", base, "--current", str(cur)]) == 1


def test_fleet_fixture_regressions_flagged(capsys):
    """The fleet fixture drops goodput 20%, inflates p99 25%, and breaks
    the chaos cell's per-tenant no-silent-loss accounting."""
    base = os.path.join(REPO_ROOT, "BENCH_fleet.json")
    bad = os.path.join(FIXTURE_DIR, "BENCH_fleet.json")
    rc = tool.main(["--baseline", base, "--current", bad])
    assert rc == 1
    out = capsys.readouterr().out
    assert "goodput" in out
    assert "p99" in out
    assert "no_silent_loss" in out
    assert "tenants[hooli].resolved" in out


def test_fleet_silent_loss_flagged_even_without_metric_drift(tmp_path):
    """A fleet cell losing one request trips the gate even when every
    gated metric is unchanged."""
    base = os.path.join(REPO_ROOT, "BENCH_fleet.json")
    doc = json.load(open(base))
    doc["cells"][0]["resolved"] -= 1
    cur = tmp_path / "BENCH_fleet.json"
    cur.write_text(json.dumps(doc))
    assert tool.main(["--baseline", base, "--current", str(cur)]) == 1


def test_fleet_tenant_loss_flagged(tmp_path):
    """Per-tenant accounting is gated independently of the fleet totals."""
    base = os.path.join(REPO_ROOT, "BENCH_fleet.json")
    doc = json.load(open(base))
    tenants = doc["cells"][0]["tenants"]
    tenants[sorted(tenants)[0]]["resolved"] -= 1
    cur = tmp_path / "BENCH_fleet.json"
    cur.write_text(json.dumps(doc))
    assert tool.main(["--baseline", base, "--current", str(cur)]) == 1


def test_fleet_subset_skips_missing_cells(tmp_path):
    """--subset gates only the cells a reduced CI grid regenerated."""
    base = os.path.join(REPO_ROOT, "BENCH_fleet.json")
    doc = json.load(open(base))
    doc["cells"] = [c for c in doc["cells"]
                    if c["kind"] == "replicas" and c["replicas"] <= 2]
    cur = tmp_path / "BENCH_fleet.json"
    cur.write_text(json.dumps(doc))
    assert tool.main(["--baseline", base, "--current", str(cur),
                      "--subset"]) == 0
    # Without --subset the missing cells are regressions.
    assert tool.main(["--baseline", base, "--current", str(cur)]) == 1


def test_fleet_missing_cell_is_a_regression(tmp_path):
    base = os.path.join(REPO_ROOT, "BENCH_fleet.json")
    doc = json.load(open(base))
    doc["cells"] = doc["cells"][1:]
    cur = tmp_path / "BENCH_fleet.json"
    cur.write_text(json.dumps(doc))
    assert tool.main(["--baseline", base, "--current", str(cur)]) == 1


def test_paper_fixture_regressions_flagged(capsys):
    """The paper fixture flips the PyG/DGL winner in one Table IV and one
    Table V cell (times and the claims they contradict) and slows one
    sweep cell by 20%."""
    base = os.path.join(REPO_ROOT, "BENCH_paper.json")
    bad = os.path.join(FIXTURE_DIR, "BENCH_paper.json")
    assert tool.main(["--baseline", base, "--current", bad]) == 1
    out = capsys.readouterr().out
    assert "paper.table4[pygx/gcn/cora]  measured" in out
    assert "paper.table5[pygx/gin/enzymes]  measured" in out
    assert "paper.sweep[pygx/gat/enzymes/128]  epoch_time" in out
    assert "paper.claims[table4: PyG trains faster than DGL" in out
    assert "holds: baseline=True -> current=False" in out


def test_paper_claim_flip_is_exact_gated_without_metric_drift(tmp_path):
    """A claim that stops holding fails the gate even when every time is
    within tolerance (a winner flipped by a 1% margin)."""
    base = os.path.join(REPO_ROOT, "BENCH_paper.json")
    doc = json.load(open(base))
    assert doc["claims"][0]["holds"] is True
    doc["claims"][0]["holds"] = False
    cur = tmp_path / "BENCH_paper.json"
    cur.write_text(json.dumps(doc))
    assert tool.main(["--baseline", base, "--current", str(cur)]) == 1


def test_paper_missing_section_cell_is_a_regression(tmp_path):
    base = os.path.join(REPO_ROOT, "BENCH_paper.json")
    doc = json.load(open(base))
    doc["fig6"] = doc["fig6"][1:]
    cur = tmp_path / "BENCH_paper.json"
    cur.write_text(json.dumps(doc))
    assert tool.main(["--baseline", base, "--current", str(cur)]) == 1


def test_usage_error_on_missing_baseline_dir(tmp_path):
    rc = tool.main(["--baseline-dir", str(tmp_path), "--current-dir", str(tmp_path)])
    assert rc == 2
