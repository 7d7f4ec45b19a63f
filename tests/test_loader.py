"""The shared epoch loop: sharding helpers and per-replica sharding in both
packs' graph loaders (one loop, so one set of cases parametrised over the
packs)."""

import numpy as np
import pytest

from repro.graph import GraphSample
from repro.loader import check_shard, shard_order
from repro.packs import FRAMEWORKS, get_pack


class TestShardOrder:
    def test_world_one_returns_order_unchanged(self):
        order = np.arange(7)
        assert shard_order(order, 0, 1) is order

    @pytest.mark.parametrize("n,world", [(10, 2), (10, 3), (17, 4), (8, 8)])
    def test_shards_are_disjoint_equal_and_cover_the_truncated_order(
        self, n, world
    ):
        order = np.random.default_rng(0).permutation(n)
        shards = [shard_order(order, rank, world) for rank in range(world)]
        assert all(len(s) == n // world for s in shards)
        flat = np.concatenate(shards)
        assert len(set(flat.tolist())) == len(flat)
        assert set(flat.tolist()) == set(order[: (n // world) * world].tolist())

    def test_remainder_graphs_are_dropped(self):
        order = np.arange(10)
        shards = [shard_order(order, rank, 3) for rank in range(3)]
        assert sorted(np.concatenate(shards).tolist()) == list(range(9))

    def test_same_order_gives_same_shards(self):
        order = np.random.default_rng(3).permutation(20)
        again = shard_order(order.copy(), 1, 4)
        np.testing.assert_array_equal(shard_order(order, 1, 4), again)


class TestCheckShard:
    def test_returns_shard_length(self):
        assert check_shard(10, 0, 3) == 3
        assert check_shard(10, 0, 1) == 10

    def test_rejects_bad_rank_or_world(self):
        with pytest.raises(ValueError):
            check_shard(10, 0, 0)
        with pytest.raises(ValueError):
            check_shard(10, 2, 2)
        with pytest.raises(ValueError):
            check_shard(10, -1, 2)

    def test_empty_shard_rejected_only_when_distributed(self):
        # An unsharded loader over zero graphs stays legal (the trainers
        # build empty val loaders when train_fraction=1.0).
        assert check_shard(0, 0, 1) == 0
        with pytest.raises(ValueError, match="empty shard"):
            check_shard(3, 0, 4)

    def test_shard_length_is_the_same_on_every_rank(self):
        assert {check_shard(10, rank, 3) for rank in range(3)} == {3}


def _graphs(n):
    # y == index so batches reveal exactly which graphs they contain.
    edge = np.array([[0], [1]])
    return [GraphSample(edge, np.ones((2, 3), np.float32), i) for i in range(n)]


def _loader(framework, graphs, batch_size, **kwargs):
    return get_pack(framework).graph_loader(graphs, batch_size, **kwargs)


def _labels(framework, loader):
    unpack = get_pack(framework).unpack
    return [int(y) for item in loader for y in unpack(item)[1]]


@pytest.mark.parametrize("framework", FRAMEWORKS)
class TestLoaderSharding:
    def test_default_is_unsharded(self, framework):
        loader = _loader(framework, _graphs(10), 4)
        assert loader.world_size == 1
        assert _labels(framework, loader) == list(range(10))
        assert len(loader) == 3

    @pytest.mark.parametrize("world", [2, 3, 4])
    def test_identically_seeded_replicas_get_disjoint_equal_shards(self, framework, world):
        graphs = _graphs(21)
        shards = [
            _labels(framework, _loader(framework, graphs, 2, shuffle=True,
                                       rng=np.random.default_rng(7),
                                       rank=rank, world_size=world))
            for rank in range(world)
        ]
        assert {len(s) for s in shards} == {21 // world}
        seen = [y for s in shards for y in s]
        assert len(seen) == len(set(seen))

    def test_sharding_is_seed_deterministic(self, framework):
        graphs = _graphs(16)
        first, second = (
            _labels(framework, _loader(framework, graphs, 4, shuffle=True,
                                       rng=np.random.default_rng(3),
                                       rank=1, world_size=4))
            for _ in range(2)
        )
        assert first == second

    def test_remainder_graphs_dropped_before_sharding(self, framework):
        graphs = _graphs(10)
        seen = []
        for rank in range(3):
            seen += _labels(framework, _loader(framework, graphs, 2, rank=rank, world_size=3))
        assert sorted(seen) == list(range(9))

    def test_len_counts_shard_batches(self, framework):
        loader = _loader(framework, _graphs(20), 4, rank=0, world_size=2)
        assert len(loader) == 3  # ceil(10 / 4)

    def test_empty_shard_rejected(self, framework):
        with pytest.raises(ValueError, match="empty shard"):
            _loader(framework, _graphs(3), 2, rank=0, world_size=4)

    def test_last_partial_batch_is_kept(self, framework):
        loader = _loader(framework, _graphs(10), 4)
        unpack = get_pack(framework).unpack
        assert [len(unpack(item)[1]) for item in loader] == [4, 4, 2]

    def test_batch_larger_than_the_data_yields_one_batch(self, framework):
        loader = _loader(framework, _graphs(3), 8)
        assert len(loader) == 1
        assert _labels(framework, loader) == [0, 1, 2]

    def test_short_shard_yields_one_partial_batch(self, framework):
        # 30 graphs over 2 replicas: each shard of 15 fits one batch of 16.
        loader = _loader(framework, _graphs(30), 16, rank=1, world_size=2)
        assert len(loader) == 1
        assert _labels(framework, loader) == list(range(1, 30, 2))


@pytest.mark.parametrize("shuffle", [False, True])
@pytest.mark.parametrize("rank,world", [(0, 1), (1, 3)])
def test_both_packs_yield_the_same_graph_order(rank, world, shuffle):
    """Ordering is the shared loop's, not a pack's: the same rng, rank,
    world size and shuffle give the same graphs in the same batches."""
    orders = {
        framework: [
            [int(y) for y in get_pack(framework).unpack(item)[1]]
            for item in _loader(framework, _graphs(23), 3, shuffle=shuffle,
                                rng=np.random.default_rng(5),
                                rank=rank, world_size=world)
        ]
        for framework in FRAMEWORKS
    }
    assert orders["pygx"] == orders["dglx"]
    assert len(orders["pygx"]) == len(_loader("pygx", _graphs(23), 3,
                                              rank=rank, world_size=world))
