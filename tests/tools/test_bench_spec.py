"""repro.bench.spec in lock-step with the committed documents, and the
write-time validator rejecting what no committed document may hold."""

from __future__ import annotations

import ast
import copy
import glob
import json
import os
import sys

import pytest

from repro.bench.serialize import (
    document_from_json,
    document_to_json,
    validate_document,
)
from repro.bench.spec import SPECS

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
EXPERIMENTS = sorted(SPECS)


def _committed(experiment):
    with open(os.path.join(REPO_ROOT, SPECS[experiment].filename)) as fh:
        return json.load(fh)


class TestLockStep:
    def test_every_committed_document_has_exactly_one_spec(self):
        committed = {os.path.basename(p)
                     for p in glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))}
        assert committed == {spec.filename for spec in SPECS.values()}
        assert len(committed) == len(SPECS) == 9

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
            wanted = set(section.keys) | set(section.schema)
            for i, cell in enumerate(cells):
                assert wanted <= set(cell), (section.name, i, wanted - set(cell))


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

    @pytest.mark.parametrize("experiment, section, index, field, value", [
        ("scaling", "cells", 0, "collectives", float("nan")),
        ("compile", "cells", 1, "parity", None),
        ("paper", "claims", 4, "holds", "yes"),
    ])
    def test_flag_or_count_of_the_wrong_type_cannot_be_written(
        self, experiment, section, index, field, value
    ):
        doc = _committed(experiment)
        doc[section][index][field] = value
        with pytest.raises(ValueError, match=rf"cell {index} field '{field}'"):
            document_to_json(experiment, doc)

    @pytest.mark.parametrize("value", [float("nan"), None, "fast"])
    def test_non_finite_faults_metric_cannot_be_written(self, value):
        for name in ("goodput", "p99"):
            doc = _committed("faults")
            doc["cells"][0][name] = value
            with pytest.raises(ValueError, match=rf"faults cell 0 field '{name}'"):
                document_to_json("faults", doc)

    def test_non_finite_serving_count_cannot_be_written(self):
        doc = _committed("serving")
        doc[1]["shed"] = None
        with pytest.raises(ValueError, match="serving cell 1 field 'shed' is not a finite"):
            document_to_json("serving", doc)

    @pytest.mark.parametrize("value", [float("nan"), None])
    def test_malformed_document_read_back_names_cell_and_field(self, value):
        doc = _committed("faults")
        doc["cells"][0]["goodput"] = value
        with pytest.raises(ValueError, match="faults cell 0 field 'goodput'"):
            document_from_json("faults", json.dumps(doc))

    def test_ops_cell_without_its_precision_cannot_be_written(self):
        doc = _committed("ops")
        del doc["cells"][5]["precision"]
        with pytest.raises(ValueError, match="ops cell 5 is missing field 'precision'"):
            document_to_json("ops", doc)

    def test_ops_precision_outside_the_vocabulary_cannot_be_written(self):
        doc = _committed("ops")
        doc["cells"][5]["precision"] = "bf16"
        with pytest.raises(ValueError, match="ops cell 5 has precision='bf16'"):
            document_to_json("ops", doc)

    def test_paper_without_one_of_its_sections_cannot_be_written(self):
        doc = _committed("paper")
        del doc["fig6"]
        with pytest.raises(ValueError, match="paper document has no 'fig6' list"):
            document_to_json("paper", doc)

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


class TestConservation:
    """A document that loses a request cannot be written."""

    def test_faults_cell_short_by_one_request(self):
        doc = _committed("faults")
        doc["cells"][2]["resolved"] -= 1
        with pytest.raises(ValueError, match=r"faults cell 2: resolved \d+ != n_requests"):
            document_to_json("faults", doc)

    def test_fleet_cell_short_by_one_request(self):
        doc = _committed("fleet")
        cell = doc["cells"][3]
        cell["completed"] -= 1
        cell["resolved"] -= 1  # the resolution arithmetic still closes
        with pytest.raises(ValueError, match=r"fleet cell 3: resolved \d+ != n_requests"):
            document_to_json("fleet", doc)

    def test_fleet_tenant_short_by_one_request(self):
        doc = _committed("fleet")
        name = sorted(doc["cells"][0]["tenants"])[-1]
        tenant = doc["cells"][0]["tenants"][name]
        tenant["completed"] -= 1
        tenant["resolved"] -= 1
        with pytest.raises(
            ValueError, match=rf"fleet cell 0 tenant '{name}': resolved \d+ != n_requests"
        ):
            document_to_json("fleet", doc)

    def test_faults_cell_over_by_one_request(self):
        # A request counted twice is as much a bookkeeping error as a lost one.
        doc = _committed("faults")
        doc["cells"][2]["resolved"] += 1
        with pytest.raises(ValueError, match=r"faults cell 2: resolved \d+ != n_requests"):
            document_to_json("faults", doc)

    def test_fleet_tenant_over_by_one_request(self):
        doc = _committed("fleet")
        name = sorted(doc["cells"][1]["tenants"])[0]
        tenant = doc["cells"][1]["tenants"][name]
        tenant["completed"] += 1
        tenant["resolved"] += 1
        with pytest.raises(
            ValueError, match=rf"fleet cell 1 tenant '{name}': resolved \d+ != n_requests"
        ):
            document_to_json("fleet", doc)
