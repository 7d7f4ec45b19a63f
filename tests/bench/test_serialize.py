"""Serialisation of experiment results."""

import json

from repro.bench.serialize import cells_to_csv, document_to_json, serving_to_dict
from repro.serve import ServingResult


class TestCellsToCsv:
    def test_header_is_the_scalar_fields_in_cell_order(self):
        cells = [{"dataset": "cora", "model": "gcn", "framework": "pygx", "measured": 0.5,
                  "accs": [0.8, 0.9], "paper": None}]
        lines = cells_to_csv(cells).strip().splitlines()
        assert lines == ["dataset,model,framework,measured,paper", "cora,gcn,pygx,0.5,"]

    def test_no_cells_is_an_empty_table(self):
        assert cells_to_csv([]).strip() == ""


def make_serving():
    return ServingResult(
        framework="pygx",
        model="gcn",
        dataset="enzymes",
        n_requests=100,
        completed=90,
        shed=10,
        shed_by_reason={"queue_full": 7, "deadline": 3},
        latency_percentiles={50.0: 0.004, 95.0: 0.02, 99.0: 0.05},
        mean_latency=0.008,
        mean_queue_delay=0.003,
        throughput=1800.0,
        mean_batch_size=12.5,
        batch_size_histogram={1: 2, 32: 4},
        max_queue_depth=64,
        mean_queue_depth=11.0,
        elapsed=0.05,
        gpu_utilization=0.2,
        busy_fraction=0.7,
        phase_times={"data_loading": 0.01, "forward": 0.02, "idle": 0.02},
    )


class TestServingToDict:
    def test_keys_are_strings_and_the_document_accepts_the_cell(self):
        cell = serving_to_dict(make_serving())
        assert cell["latency_percentiles"]["50.0"] == 0.004
        assert cell["batch_size_histogram"]["32"] == 4
        assert json.loads(document_to_json("serving", [cell])) == [cell]
