"""The framework-pack seam: both packs behind one :class:`repro.packs.Pack`."""

import dataclasses

import numpy as np
import pytest

from repro.datasets import enzymes
from repro.models import graph_config
from repro.packs import FRAMEWORKS, Pack, get_pack
from repro.scale import make_scale_dataset


@pytest.fixture(scope="module")
def graphs():
    return enzymes(seed=0, num_graphs=12).graphs


def _counts(inputs):
    """(nodes, edges) of a collated batch from either pack."""
    num_nodes = inputs.num_nodes
    num_edges = inputs.num_edges
    return (
        num_nodes() if callable(num_nodes) else num_nodes,
        num_edges() if callable(num_edges) else num_edges,
    )


class TestGetPack:
    def test_frameworks_are_the_two_packs(self):
        assert FRAMEWORKS == ("pygx", "dglx")

    @pytest.mark.parametrize("framework", FRAMEWORKS)
    def test_every_field_is_populated(self, framework):
        pack = get_pack(framework)
        assert isinstance(pack, Pack)
        for field in dataclasses.fields(Pack):
            assert callable(getattr(pack, field.name)), field.name

    def test_packs_are_cached(self):
        assert get_pack("pygx") is get_pack("pygx")

    def test_unknown_framework_names_both_options(self):
        with pytest.raises(ValueError, match="unknown framework 'nope'") as err:
            get_pack("nope")
        assert "pygx" in str(err.value) and "dglx" in str(err.value)


@pytest.mark.parametrize("framework", FRAMEWORKS)
class TestPackSurface:
    def test_build_model_runs_on_collated_batch(self, framework, graphs):
        pack = get_pack(framework)
        config = graph_config("gcn", in_dim=graphs[0].x.shape[1], n_classes=6)
        model = pack.build_model(config, np.random.default_rng(0))
        inputs, labels = pack.collate(graphs[:4])
        assert model(inputs).shape == (4, 6)
        assert len(labels) == 4

    def test_collate_agrees_with_the_loader(self, framework, graphs):
        """collate(samples) is one item of graph_loader over the same graphs."""
        pack = get_pack(framework)
        loader = pack.graph_loader(graphs, 5, shuffle=False, rng=0)
        items = [pack.unpack(item) for item in loader]
        assert len(items) == 3
        for i, (inputs, labels) in enumerate(items):
            chunk = graphs[5 * i : 5 * (i + 1)]
            direct_inputs, direct_labels = pack.collate(chunk)
            np.testing.assert_array_equal(labels, direct_labels)
            np.testing.assert_array_equal(labels, [g.y for g in chunk])
            assert _counts(inputs) == _counts(direct_inputs)
            assert _counts(inputs) == (
                sum(g.num_nodes for g in chunk), sum(g.num_edges for g in chunk)
            )

    def test_loader_shards_by_rank(self, framework, graphs):
        pack = get_pack(framework)
        shards = [
            pack.graph_loader(graphs, 3, shuffle=True, rng=7, rank=r, world_size=2)
            for r in range(2)
        ]
        sizes = [sum(len(pack.unpack(item)[1]) for item in shard) for shard in shards]
        assert sizes == [6, 6]

    def test_neighbor_loader_items_unpack_with_seed_count(self, framework):
        pack = get_pack(framework)
        ds = make_scale_dataset(300, avg_degree=4.0, n_classes=3, n_features=8, seed=0)
        loader = pack.neighbor_loader(
            ds.graph, ds.train_idx, (3, 3), 16, shuffle=False, rng=0
        )
        inputs, labels, n_seeds = pack.unpack(next(iter(loader)))
        assert n_seeds == len(labels) == min(16, len(ds.train_idx))
        assert _counts(inputs)[0] >= n_seeds

    def test_prefetch_wraps_in_the_packs_own_class(self, framework, graphs):
        """``hostbench --trace`` names the collate span from this module path."""
        pack = get_pack(framework)
        wrapped = pack.prefetch(pack.graph_loader(graphs, 4, shuffle=False, rng=0))
        assert type(wrapped).__module__.split(".")[:2] == ["repro", framework]
        assert len(list(wrapped)) == 3

    def test_collate_host_cost_is_collates_bookkeeping_charge(
        self, framework, graphs, fresh_device, monkeypatch
    ):
        """What collate charges the host is this bookkeeping plus the per-byte
        concatenation (and, on dglx, one 15 us feature-frame write)."""
        pack = get_pack(framework)
        costs = fresh_device.host_costs
        charged = []
        monkeypatch.setattr(fresh_device, "host", charged.append)
        pack.collate(graphs[:4])
        nbytes = sum(g.x.nbytes + g.edge_index.nbytes for g in graphs[:4])
        assert sum(charged) == pytest.approx(
            pack.collate_host_cost(costs, 1, 4) + costs.batch_per_byte * nbytes,
            abs=costs.dgl_frame_set_overhead * 1.01,
        )
