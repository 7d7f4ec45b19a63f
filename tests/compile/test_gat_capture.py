"""A compiled, prefetched pygx GAT epoch is the one the three-op chain ran.

pygx ``GATConv`` aggregates with ``gather_mul_sum``, which never builds the
per-edge rows or messages on the host and stands their charges in for them,
under capture too.  ``train_compiled`` is the one workload that captures and
replays that step, so an epoch with ``compile=True, prefetch=True`` must
equal, bit for bit, the same epoch with the chain it fuses —
``index_rows`` -> ``mul`` -> ``scatter_sum``, the messages held until the
layer returns — put back into ``repro.pygx.models.gat``: losses, launch
records, pool peak, clock and ``CompileStats``, at several seeds (batches of
different shapes).
"""

import numpy as np
import pytest

from repro.datasets import enzymes
from repro.device import Device
from repro.pygx.models import gat
from repro.train import GraphClassificationTrainer
from tests.compile.test_capture_charges import _chain


def _epoch(seed):
    device = Device()
    device.profiler.enabled = True
    trainer = GraphClassificationTrainer(
        "pygx", "gat", enzymes(seed, num_graphs=40), batch_size=8, device=device,
        compile=True, prefetch=True,
    )
    result = trainer.measure_epoch(n_epochs=1, seed=seed)
    epoch = result.epochs[0]
    return {
        "losses": (epoch.train_loss.hex(), epoch.val_loss.hex(), epoch.val_acc),
        "launches": [(r.name, r.flops, r.bytes_moved, r.memory) for r in device.profiler.records],
        "peak": (device.memory.peak, result.peak_memory),
        "clock": device.clock.elapsed.hex(),
        "compile": repr(trainer.compiled_step.stats),
    }


@pytest.mark.parametrize("seed", range(8))
def test_compiled_gat_epoch_equals_the_three_op_chain(monkeypatch, seed):
    fused = _epoch(seed)
    calls = []
    monkeypatch.setattr(gat, "gather_mul_sum", _chain(calls))
    chain = _epoch(seed)
    assert calls, "the chain was never called: the comparison is vacuous"
    assert fused["compile"] == chain["compile"]
    assert "replays=0" not in fused["compile"], "the epoch never replayed"
    assert len(fused["launches"]) == len(chain["launches"]) > 0
    for key in ("losses", "launches", "peak", "clock"):
        assert fused[key] == chain[key], f"{key} moved"
    assert np.isfinite(float.fromhex(fused["losses"][0]))
