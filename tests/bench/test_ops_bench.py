"""repro.bench.ops: cell invariants, the BENCH_ops.json schema round-trip
and the ``report ops`` CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.ops import (
    MODES,
    OPS,
    PACKS,
    SHAPES,
    _build,
    ops_document,
    ops_grid,
    ops_report,
    run_cell,
)
from repro.bench.report import main
from repro.bench.serialize import (
    document_from_json,
    document_to_json,
    validate_document,
)
from repro.bench.spec import SPECS
from repro.device import Device, use_device


CORA = SHAPES["cora"]
ENZYMES = SHAPES["enzymes-b128"]


class TestRunCell:
    def test_cell_carries_every_schema_field(self):
        cell = run_cell("gemm", ENZYMES, "pygx")
        for field, types in SPECS["ops"].sections[0].schema.items():
            assert field in cell
            assert isinstance(cell[field], types), field

    def test_unfused_pyg_spmm_vs_fused_dgl_gspmm(self):
        # The Section IV-C contrast: the gather->scatter lowering costs
        # two launches where the fused GSpMM costs one, over the same
        # edge set and features.
        pyg = run_cell("gspmm", CORA, "pygx")
        dgl = run_cell("gspmm", CORA, "dglx")
        assert pyg["launches"] == 2
        assert dgl["launches"] == 1

    def test_compiled_elementwise_chain_fuses(self):
        eager = run_cell("elementwise", CORA, "pygx", "eager")
        compiled = run_cell("elementwise", CORA, "pygx", "compiled")
        assert eager["launches"] == 4
        assert compiled["launches"] == 1
        assert compiled["wall_time"] < eager["wall_time"]

    def test_gemm_compute_bound_at_cora_width(self):
        # 1433-wide features put the GEMM far right of the ridge point.
        cell = run_cell("gemm", CORA, "pygx")
        assert cell["bound"] == "compute"
        assert cell["intensity"] > 100

    def test_h2d_has_no_flops_and_no_compiled_mode(self):
        cell = run_cell("h2d", CORA, "pygx")
        assert cell["flops"] == 0.0
        assert cell["intensity"] == 0.0
        assert cell["bound"] in ("launch", "bandwidth")
        with pytest.raises(ValueError):
            run_cell("h2d", CORA, "pygx", "compiled")

    def test_unknown_inputs_raise(self):
        with pytest.raises(ValueError):
            run_cell("nope", CORA, "pygx")
        with pytest.raises(ValueError):
            run_cell("gemm", CORA, "torch")
        with pytest.raises(ValueError):
            run_cell("gemm", CORA, "pygx", "jit")

    def test_cells_are_deterministic(self):
        assert run_cell("gspmm", ENZYMES, "dglx") == run_cell(
            "gspmm", ENZYMES, "dglx"
        )


#: The kernels one eager cell launches, in order.  PyG materialises per-edge
#: rows with gathers and reduces them with scatters; DGL runs one fused
#: kernel.  These lists are what BENCH_ops.json's launch counts summarise.
LAUNCHES = {
    ("gspmm", "pygx"): ["gather", "scatter_sum"],
    ("gspmm", "dglx"): ["gspmm"],
    ("sddmm", "pygx"): ["gather", "gather", "mul", "sum"],
    ("sddmm", "dglx"): ["gsddmm_dot"],
    ("scatter_reduce", "pygx"): ["scatter_sum"],
    ("scatter_reduce", "dglx"): ["segment_reduce_sum"],
    ("gemm", "pygx"): ["matmul"],
    ("gemm", "dglx"): ["matmul"],
    ("elementwise", "pygx"): ["add", "mul", "relu", "add"],
    ("elementwise", "dglx"): ["add", "mul", "relu", "add"],
    ("h2d", "pygx"): ["memcpy_h2d"],
    ("h2d", "dglx"): ["memcpy_h2d"],
}


class TestLowerings:
    def test_every_cell_has_a_launch_list(self):
        assert set(LAUNCHES) == {(op, pack) for op in OPS for pack in PACKS}

    @pytest.mark.parametrize("op, pack", list(LAUNCHES))
    def test_cell_launches_its_packs_lowering(self, op, pack):
        device = Device()
        with use_device(device):
            fn, args = _build(op, ENZYMES, pack)
            fn(*args)  # lazy state is built on the first call, as in run_cell
            device.reset()
            device.profiler.enabled = True
            fn(*args)
        assert [r.name for r in device.profiler.records] == LAUNCHES[op, pack]

    @pytest.mark.parametrize("op", ["gspmm", "sddmm", "scatter_reduce"])
    def test_both_packs_compute_the_same_values(self, op):
        # The two lowerings differ in launches and traffic, not in result.
        outputs = []
        for pack in PACKS:
            with use_device(Device()):
                fn, args = _build(op, ENZYMES, pack)
                outputs.append(fn(*args).data)
        np.testing.assert_allclose(outputs[0], outputs[1], rtol=1e-5, atol=1e-5)


class TestGridAndSchema:
    def test_grid_covers_every_op_on_both_packs(self):
        cells = ops_grid(shapes=["enzymes-b128"])
        seen = {(c["op"], c["pack"]) for c in cells}
        assert seen == {(op, pack) for op in OPS for pack in PACKS}
        # fp32: h2d has no compiled mode, everything else appears in both;
        # fp16 rides along on the eager cells only.
        fp32 = (len(OPS) - 1) * len(PACKS) * len(MODES) + len(PACKS)
        fp16 = len(OPS) * len(PACKS)
        assert len(cells) == fp32 + fp16
        assert {c["precision"] for c in cells} == {"fp32", "fp16"}
        assert all(
            c["mode"] == "eager" for c in cells if c["precision"] == "fp16"
        )
        for cell in cells:
            assert cell["bound"] in ("launch", "bandwidth", "compute")

    def test_document_round_trips_through_serialize(self):
        doc = ops_document(ops_grid(shapes=["enzymes-b128"], ops=["gemm", "h2d"]))
        assert document_from_json("ops", document_to_json("ops", doc)) == doc
        assert doc["device"]["ridge_point"] > 0

    def test_validate_rejects_wrong_experiment(self):
        with pytest.raises(ValueError, match="not an ops document"):
            validate_document("ops", {"experiment": "compile", "cells": []})

    def test_validate_rejects_missing_field_and_bad_bound(self):
        cell = run_cell("gemm", ENZYMES, "pygx")
        broken = dict(cell)
        del broken["intensity"]
        with pytest.raises(ValueError, match="missing field 'intensity'"):
            validate_document("ops", {"experiment": "ops", "cells": [broken]})
        flipped = dict(cell, bound="memory")
        with pytest.raises(ValueError, match="bound='memory'"):
            validate_document("ops", {"experiment": "ops", "cells": [flipped]})

    def test_report_renders_every_cell_and_summary(self):
        cells = ops_grid(shapes=["enzymes-b128"], ops=["gspmm"])
        text = ops_report(cells)
        assert "roofline attribution" in text
        assert "Bottleneck summary" in text
        assert text.count("gspmm") >= len(cells)


class TestCli:
    def test_cli_writes_valid_document(self, tmp_path, capsys):
        out = tmp_path / "BENCH_ops.json"
        rc = main(["ops", "--shapes", "enzymes-b128", "--ops", "gemm", "--json", str(out)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        doc = document_from_json("ops", out.read_text())
        assert {c["shape"] for c in doc["cells"]} == {"enzymes-b128"}

    def test_cli_always_prints_the_report(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["ops", "--shapes", "enzymes-b128", "--ops", "h2d", "--frameworks", "dglx"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bound" in out and "dglx" in out and "pygx" not in out
        assert list(tmp_path.iterdir()) == []
