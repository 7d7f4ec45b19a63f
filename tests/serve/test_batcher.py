"""Dynamic batcher budgets and FIFO behaviour."""

import numpy as np
import pytest

from repro.graph import GraphSample
from repro.serve import DynamicBatcher, InferenceRequest, RequestQueue


def make_request(request_id, nodes=4, arrival=0.0, deadline=None):
    edge_index = np.array([[i for i in range(nodes - 1)], [i + 1 for i in range(nodes - 1)]])
    sample = GraphSample(edge_index, np.ones((nodes, 3), dtype=np.float32), y=0)
    return InferenceRequest(request_id, sample, arrival, deadline)


def filled_queue(requests, capacity=64):
    queue = RequestQueue(capacity)
    for request in requests:
        queue.push(request)
    return queue


class TestDynamicBatcher:
    def test_takes_whole_queue_under_budget(self):
        queue = filled_queue([make_request(i) for i in range(5)])
        batch, expired = DynamicBatcher(max_batch_size=8).next_batch(queue, 0.0)
        assert [r.request_id for r in batch] == [0, 1, 2, 3, 4]
        assert expired == []
        assert len(queue) == 0

    def test_max_batch_size_respected_fifo(self):
        queue = filled_queue([make_request(i) for i in range(5)])
        batcher = DynamicBatcher(max_batch_size=2)
        batch, _ = batcher.next_batch(queue, 0.0)
        assert [r.request_id for r in batch] == [0, 1]
        batch, _ = batcher.next_batch(queue, 0.0)
        assert [r.request_id for r in batch] == [2, 3]

    def test_node_budget_bounds_batch(self):
        queue = filled_queue([make_request(i, nodes=10) for i in range(4)])
        batcher = DynamicBatcher(max_batch_size=8, max_nodes=25)
        batch, _ = batcher.next_batch(queue, 0.0)
        assert len(batch) == 2  # 10 + 10 fits, +10 would exceed 25

    def test_edge_budget_bounds_batch(self):
        # nodes=5 -> 4 chain edges per graph
        queue = filled_queue([make_request(i, nodes=5) for i in range(4)])
        batcher = DynamicBatcher(max_batch_size=8, max_edges=9)
        batch, _ = batcher.next_batch(queue, 0.0)
        assert len(batch) == 2

    def test_single_oversized_graph_still_served(self):
        queue = filled_queue([make_request(0, nodes=100), make_request(1)])
        batcher = DynamicBatcher(max_batch_size=8, max_nodes=10)
        batch, _ = batcher.next_batch(queue, 0.0)
        assert [r.request_id for r in batch] == [0]
        assert len(queue) == 1

    def test_expired_requests_popped_and_reported(self):
        requests = [
            make_request(0, arrival=0.0, deadline=0.1),
            make_request(1, arrival=0.0, deadline=10.0),
        ]
        queue = filled_queue(requests)
        batch, expired = DynamicBatcher(max_batch_size=8).next_batch(queue, 5.0)
        assert [r.request_id for r in expired] == [0]
        assert [r.request_id for r in batch] == [1]

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            DynamicBatcher(max_batch_size=0)
        with pytest.raises(ValueError):
            DynamicBatcher(max_nodes=0)
        with pytest.raises(ValueError):
            DynamicBatcher(max_edges=-1)
