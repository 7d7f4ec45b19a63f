"""docs/api.md's ``repro.tensor`` op and kernel bullets name real attributes.

Every backticked name in the "Dense ops", "NN kernels" and "Graph kernels"
bullets must resolve from ``repro.tensor`` (``ops.sum`` through
``repro.tensor.ops``), so a deleted op cannot stay listed.
"""

import re
from pathlib import Path

import repro.tensor

API = Path(__file__).resolve().parents[2] / "docs" / "api.md"
BULLETS = ("Dense ops:", "NN kernels:", "Graph kernels:")


def _listed_names():
    text = API.read_text()
    section = text.split("## `repro.tensor`", 1)[1].split("\n## ", 1)[0]
    names = []
    for bullet in re.split(r"\n- ", section):
        if bullet.startswith(BULLETS):
            for span in re.findall(r"`([^`]+)`", bullet):
                names.extend(span.split())
    return names


def _resolves(name):
    target = repro.tensor
    for part in name.split("."):
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return True


def test_every_listed_op_and_kernel_is_an_attribute_of_repro_tensor():
    names = _listed_names()
    assert {"add", "ops.neg", "batch_norm", "gather_mul_sum", "edge_softmax"} <= set(names)
    assert [name for name in names if not _resolves(name)] == []
