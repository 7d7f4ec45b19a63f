"""Partitioned halo-exchange inference must reproduce the full-graph
forward pass exactly (up to float accumulation order)."""

import numpy as np
import pytest

from repro.device import Device, use_device
from repro.models import node_config
from repro.packs import get_pack
from repro.scale import (
    degree_balanced_partition,
    full_graph_training_memory_floor,
    make_scale_dataset,
    part_local_graph,
    partitioned_inference,
)


@pytest.fixture(scope="module")
def dataset():
    return make_scale_dataset(
        800, avg_degree=6.0, n_classes=4, n_features=16, seed=0,
        self_loops=True,
    )


def _build_model(framework, model_name, dataset, seed=0):
    config = node_config(model_name, in_dim=dataset.num_features,
                         n_classes=dataset.num_classes)
    return get_pack(framework).build_model(config, np.random.default_rng(seed))


def _full_forward(framework, model, dataset):
    """Reference logits: the whole graph resident in one device batch."""
    sample = dataset.to_node_dataset().graph
    model.eval()
    with use_device(Device()):
        inputs, _ = get_pack(framework).collate([sample])
        return model(inputs).data


class TestPartLocalGraph:
    def test_local_edges_map_back_to_global(self, dataset):
        graph = dataset.graph
        partition = degree_balanced_partition(graph, 5)
        for part in partition.parts:
            nodes, src, dst, num_owned = part_local_graph(graph, part)
            assert num_owned == part.num_owned
            np.testing.assert_array_equal(
                nodes, np.concatenate([np.arange(part.lo, part.hi), part.halo])
            )
            # Every local edge, mapped back to global ids, is an in-edge
            # of an owned node — and all such in-edges are present.
            src_g, dst_g = nodes[src], nodes[dst]
            assert np.all((dst_g >= part.lo) & (dst_g < part.hi))
            assert len(src_g) == part.num_edges
            for v in range(part.lo, min(part.lo + 20, part.hi)):
                np.testing.assert_array_equal(
                    np.sort(src_g[dst_g == v]),
                    np.sort(graph.indices[graph.indptr[v]:graph.indptr[v + 1]]),
                )


class TestPartitionedInferenceParity:
    @pytest.mark.parametrize("framework", ["pygx", "dglx"])
    @pytest.mark.parametrize("model_name", ["gcn", "sage"])
    @pytest.mark.parametrize("k", [1, 4])
    def test_matches_full_forward(self, dataset, framework, model_name, k):
        model = _build_model(framework, model_name, dataset)
        expected = _full_forward(framework, model, dataset)

        device = Device()
        partition = degree_balanced_partition(dataset.graph, k)
        with use_device(device):
            logits = partitioned_inference(
                framework, model, dataset.graph, partition
            )
        assert logits.shape == expected.shape
        np.testing.assert_allclose(logits, expected, atol=1e-4, rtol=1e-4)

    def test_peak_memory_shrinks_with_more_parts(self, dataset):
        model = _build_model("pygx", "gcn", dataset)

        def peak(k):
            device = Device()
            with use_device(device):
                partitioned_inference(
                    "pygx", model, dataset.graph,
                    degree_balanced_partition(dataset.graph, k),
                )
            return device.memory.peak

        assert peak(8) < peak(1)

    def test_unknown_framework_raises(self, dataset):
        with pytest.raises(ValueError):
            partitioned_inference("jax", None, dataset.graph,
                                  degree_balanced_partition(dataset.graph, 2))


class TestMemoryFloor:
    def test_floor_counts_activations_and_messages(self):
        config = node_config("gcn", in_dim=32, n_classes=8)
        floor = full_graph_training_memory_floor(1000, 5000, config)
        widths = [32, config.hidden, 8]
        assert floor == 1000 * sum(widths) * 4 + 5000 * max(widths) * 4

    def test_floor_scales_with_graph(self):
        config = node_config("sage", in_dim=32, n_classes=8)
        small = full_graph_training_memory_floor(10_000, 80_000, config)
        big = full_graph_training_memory_floor(1_000_000, 8_000_000, config)
        assert big > 90 * small
