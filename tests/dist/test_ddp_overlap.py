"""DDP bucketing, grad hooks and comm/compute overlap."""

import numpy as np
import pytest

from repro.device import current_device
from repro.dist import (
    COMM_PHASE,
    Communicator,
    DistributedDataParallel,
)
from repro.nn import Linear, Module, ReLU, Sequential
from repro.tensor import Tensor


class MLP(Module):
    def __init__(self, rng, width=32, depth=3):
        super().__init__()
        layers = []
        for _ in range(depth):
            layers.append(Linear(width, width, rng=rng))
            layers.append(ReLU())
        self.body = Sequential(*layers)

    def forward(self, x):
        return self.body(x)

    @property
    def width(self):
        return self.body[0].in_features


def _model(width=32, depth=3):
    return MLP(np.random.default_rng(0), width=width, depth=depth)


def _backward(model, n=4):
    out = model(Tensor(np.ones((n, model.width), np.float32)))
    out.sum().backward()


class TestBuckets:
    def test_world_one_builds_no_buckets_or_hooks(self):
        model = _model()
        ddp = DistributedDataParallel(model, Communicator(1))
        assert ddp.buckets == []
        assert all(p._post_accumulate_hooks is None
                   for _, p in model.named_parameters())

    def test_buckets_cover_every_param_once_in_reverse_order(self):
        model = _model()
        ddp = DistributedDataParallel(model, Communicator(2),
                                      bucket_bytes=1 << 12)
        names = [n for b in ddp.buckets for n, _ in b.params]
        assert sorted(names) == sorted(n for n, _ in model.named_parameters())
        assert names == [n for n, _ in reversed(list(model.named_parameters()))]

    def test_bucket_byte_cap_respected(self):
        model = _model()
        cap = 1 << 12  # one 32x32 float32 weight is 4 KiB
        ddp = DistributedDataParallel(model, Communicator(2), bucket_bytes=cap)
        for bucket in ddp.buckets:
            total = sum(p.data.nbytes for _, p in bucket.params)
            assert total <= cap or len(bucket.params) == 1

    def test_huge_cap_gives_single_bucket(self):
        model = _model()
        ddp = DistributedDataParallel(model, Communicator(2),
                                      bucket_bytes=1 << 30)
        assert len(ddp.buckets) == 1

    def test_oversize_param_gets_its_own_bucket(self):
        model = _model(width=64)
        ddp = DistributedDataParallel(model, Communicator(2), bucket_bytes=8)
        assert all(len(b.params) == 1 for b in ddp.buckets)


class TestHooks:
    def test_each_complete_bucket_reduces_once_per_backward(self):
        model = _model()
        comm = Communicator(3)
        ddp = DistributedDataParallel(model, comm, bucket_bytes=1 << 12)
        grads = {n: np.zeros(p.data.shape, np.float32)
                 for n, p in model.named_parameters()}
        for rank in (1, 2):
            ddp.stage_remote_grads(rank, grads)
        _backward(model)
        ddp.finish_backward()
        assert comm.stats.collectives == len(ddp.buckets)

    def test_no_sync_suppresses_collectives(self):
        model = _model()
        comm = Communicator(2)
        ddp = DistributedDataParallel(model, comm)
        with ddp.no_sync():
            _backward(model)
        assert comm.stats.collectives == 0
        ddp.finish_backward()
        assert comm.stats.collectives == 0

    def test_stage_remote_grads_validates_rank_and_names(self):
        model = _model()
        ddp = DistributedDataParallel(model, Communicator(2))
        grads = {n: np.zeros(p.data.shape, np.float32)
                 for n, p in model.named_parameters()}
        with pytest.raises(ValueError):
            ddp.stage_remote_grads(0, grads)
        with pytest.raises(ValueError):
            ddp.stage_remote_grads(2, grads)
        with pytest.raises(ValueError):
            ddp.stage_remote_grads(1, {"nope": np.zeros(1, np.float32)})


class TestOverlap:
    """Collectives ride the comm streams: compute issued after a bucket
    reduce hides the transfer, so synchronising afterwards is (nearly)
    free compared with synchronising immediately."""

    def _comm_then_sync(self, compute_seconds):
        device = current_device()
        comm = Communicator(4)
        big = [np.ones(1_000_000, np.float32) for _ in range(4)]
        comm.all_reduce(big, algorithm="ring")
        if compute_seconds:
            # Enough default-stream compute to cover the in-flight schedule.
            device.launch("gemm",
                          flops=compute_seconds * device.spec.peak_flops)
        before = device.clock.elapsed
        comm.synchronize()
        return device.clock.elapsed - before

    def test_compute_hides_comm_wait(self):
        eager_wait = self._comm_then_sync(compute_seconds=0.0)
        hidden_wait = self._comm_then_sync(compute_seconds=0.1)
        assert eager_wait > 0
        assert hidden_wait == 0.0

    def test_comm_phase_accounts_only_comm_time(self):
        device = current_device()
        comm = Communicator(2)
        base = device.clock.phase_elapsed.get(COMM_PHASE, 0.0)
        comm.all_reduce([np.ones(100_000, np.float32) for _ in range(2)])
        device.launch("gemm", flops=1e9)
        comm.synchronize()
        comm_time = device.clock.phase_elapsed[COMM_PHASE] - base
        assert comm_time > 0
        # The interleaved compute launch is not attributed to comm.
        assert device.clock.phase_elapsed.get("other", 0.0) >= 0
