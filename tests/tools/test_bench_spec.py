"""repro.bench.spec in lock-step with the committed baselines, the regressed
fixtures, the gate and the validator -- and the gate's NaN / null handling."""

from __future__ import annotations

import ast
import copy
import glob
import json
import math
import os
import sys

import pytest

from repro.bench.serialize import (
    document_from_json,
    document_to_json,
    validate_document,
)
from repro.bench.spec import SPECS
from tests.tools.test_check_bench_regression import FIXTURE_DIR, REPO_ROOT, tool

EXPERIMENTS = sorted(SPECS)


def _committed(experiment):
    with open(os.path.join(REPO_ROOT, SPECS[experiment].filename)) as fh:
        return json.load(fh)


def _gate(tmp_path, experiment, current, *flags):
    """Run the gate in single-file mode: committed baseline vs ``current``."""
    spec = SPECS[experiment]
    path = tmp_path / spec.filename
    path.write_text(json.dumps(current))
    return tool.main(["--baseline", os.path.join(REPO_ROOT, spec.filename),
                      "--current", str(path), *flags])


class TestLockStep:
    def test_every_committed_document_has_exactly_one_spec(self):
        committed = {os.path.basename(p)
                     for p in glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))}
        assert committed == {spec.filename for spec in SPECS.values()}
        assert len(committed) == len(SPECS) == 9

    def test_every_spec_has_a_regressed_fixture(self):
        assert set(os.listdir(FIXTURE_DIR)) == {
            spec.filename for spec in SPECS.values()}

    def test_spec_module_is_stdlib_only(self):
        import repro.bench.spec as module

        tree = ast.parse(open(module.__file__).read())
        imported = {
            (node.module if isinstance(node, ast.ImportFrom) else alias.name)
            .split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert imported <= set(sys.stdlib_module_names), imported

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_gate_accepts_baseline_and_rejects_fixture(self, experiment):
        name = SPECS[experiment].filename
        base = os.path.join(REPO_ROOT, name)
        assert tool.main(["--baseline", base, "--current", base]) == 0
        bad = os.path.join(FIXTURE_DIR, name)
        assert tool.main(["--baseline", base, "--current", bad]) == 1

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_committed_document_validates_and_round_trips(self, experiment):
        doc = _committed(experiment)
        assert validate_document(experiment, doc) is doc
        assert document_from_json(experiment, document_to_json(experiment, doc)) == doc

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_every_key_and_gated_field_is_in_every_committed_cell(self, experiment):
        doc = _committed(experiment)
        for section in SPECS[experiment].sections:
            cells = section.cells(doc)
            assert cells, section.name
            wanted = set(section.keys) | {
                name for metric, _, _ in section.metrics
                for name in section.sources(metric)}
            for i, cell in enumerate(cells):
                assert wanted <= set(cell), (section.name, i, wanted - set(cell))
                # Every label renders (the format spec fits the value).
                assert section.label_of(cell, i).startswith(section.name + "[")


class TestWriterNamesTheExperiment:
    def test_writer_tags_an_untagged_body(self):
        cells = _committed("compile")["cells"]
        doc = json.loads(document_to_json("compile", {"cells": cells}))
        assert list(doc) == ["experiment", "cells"]
        assert doc["experiment"] == "compile"

    def test_document_handed_to_the_wrong_writer_is_rejected(self):
        with pytest.raises(ValueError, match="not an ops document"):
            document_to_json("ops", _committed("compile"))
        with pytest.raises(ValueError, match="not a fleet document"):
            document_to_json("fleet", _committed("serving"))
        with pytest.raises(ValueError, match="not a serving document"):
            document_to_json("serving", _committed("faults"))

    def test_missing_section_is_rejected(self):
        doc = _committed("scale")
        del doc["partitioned"]
        with pytest.raises(ValueError, match="no 'partitioned' list"):
            validate_document("scale", doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), None, "fast"])
    def test_non_finite_gated_metric_cannot_be_written(self, value):
        doc = _committed("scaling")
        doc["cells"][3]["speedup_vs_dp"] = value
        with pytest.raises(ValueError, match=r"scaling.cells cell 3 field 'speedup_vs_dp'"):
            document_to_json("scaling", doc)

    def test_missing_key_field_names_cell_and_field(self):
        doc = _committed("serving")
        del doc[2]["dataset"]
        with pytest.raises(ValueError, match="serving cell 2 is missing field 'dataset'"):
            validate_document("serving", doc)


class TestFleetSchema:
    """Schema violations the fleet validator must reject."""

    @pytest.fixture
    def doc(self):
        return _committed("fleet")

    def test_missing_field(self, doc):
        del doc["cells"][1]["cache_hit_rate"]
        with pytest.raises(ValueError, match="fleet cell 1 is missing field 'cache_hit_rate'"):
            validate_document("fleet", doc)

    def test_wrong_type(self, doc):
        doc["cells"][0]["replicas"] = "two"
        with pytest.raises(ValueError, match="fleet cell 0 field 'replicas' has type str"):
            validate_document("fleet", doc)

    def test_kind_outside_the_vocabulary(self, doc):
        doc["cells"][4]["kind"] = "canary"
        with pytest.raises(ValueError, match="fleet cell 4 has kind='canary'"):
            validate_document("fleet", doc)

    def test_resolution_arithmetic_must_close(self, doc):
        doc["cells"][2]["shed"] += 1
        with pytest.raises(
            ValueError, match=r"fleet cell 2: completed \+ shed \+ failed != resolved"
        ):
            validate_document("fleet", doc)

    def test_tenant_entry_needs_its_integer_counts(self, doc):
        tenants = doc["cells"][0]["tenants"]
        name = sorted(tenants)[0]
        broken = copy.deepcopy(doc)
        del broken["cells"][0]["tenants"][name]["resolved"]
        with pytest.raises(
            ValueError,
            match=f"fleet cell 0 tenant '{name}' is missing integer field 'resolved'",
        ):
            validate_document("fleet", broken)
        doc["cells"][0]["tenants"][name] = 7
        with pytest.raises(ValueError, match=f"fleet cell 0 tenant '{name}' is not a dict"):
            validate_document("fleet", doc)


class TestGateOnNonFiniteValues:
    """NaN compares false both ways, so it used to pass the gate; ``null``
    used to crash it with a TypeError traceback."""

    @pytest.mark.parametrize("value", [float("nan"), None, "fast"])
    def test_non_finite_current_metric_is_a_regression(self, tmp_path, capsys, value):
        doc = _committed("faults")
        doc["cells"][0]["goodput"] = doc["cells"][0]["p99"] = value
        assert _gate(tmp_path, "faults", doc) == 1
        out = capsys.readouterr().out
        assert out.count("[not a finite number]") == 2
        assert "goodput" in out and "p99" in out

    def test_non_finite_source_of_a_derived_metric_is_a_regression(
        self, tmp_path, capsys
    ):
        doc = _committed("serving")
        doc[1]["shed"] = None
        assert _gate(tmp_path, "serving", doc) == 1
        assert "shed_fraction: " in capsys.readouterr().out

    def test_nan_on_an_exact_metric_is_a_regression(self, tmp_path):
        doc = _committed("scaling")
        doc["cells"][0]["collectives"] = math.nan
        assert _gate(tmp_path, "scaling", doc) == 1

    @pytest.mark.parametrize("value", [float("nan"), None])
    def test_malformed_baseline_is_a_usage_error(self, tmp_path, capsys, value):
        good = os.path.join(REPO_ROOT, "BENCH_faults.json")
        doc = _committed("faults")
        doc["cells"][0]["goodput"] = value
        bad = tmp_path / "BENCH_faults.json"
        bad.write_text(json.dumps(doc))
        assert tool.main(["--baseline", str(bad), "--current", good]) == 2
        err = capsys.readouterr().err
        assert "BENCH_faults.json" in err
        assert "faults cell 0 field 'goodput'" in err

    def test_baseline_without_a_gated_field_is_a_usage_error(self, tmp_path, capsys):
        good = os.path.join(REPO_ROOT, "BENCH_ops.json")
        doc = _committed("ops")
        del doc["cells"][5]["precision"]
        bad = tmp_path / "BENCH_ops.json"
        bad.write_text(json.dumps(doc))
        assert tool.main(["--baseline", str(bad), "--current", good]) == 2
        assert "ops cell 5 is missing field 'precision'" in capsys.readouterr().err

    def test_current_of_another_kind_is_a_usage_error(self, tmp_path, capsys):
        assert _gate(tmp_path, "compile", _committed("serving")) == 2
        assert "not a compile document" in capsys.readouterr().err
