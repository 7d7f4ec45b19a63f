"""Bounded queue and admission-control semantics."""

import numpy as np
import pytest

from repro.graph import GraphSample
from repro.serve import AdmissionController, InferenceRequest, Overloaded, RequestQueue


def make_request(request_id=0, arrival=0.0, deadline=None, nodes=4):
    edge_index = np.array([[i for i in range(nodes - 1)], [i + 1 for i in range(nodes - 1)]])
    sample = GraphSample(edge_index, np.ones((nodes, 3), dtype=np.float32), y=0)
    return InferenceRequest(request_id, sample, arrival, deadline)


@pytest.mark.parametrize("lanes", [1, 3], ids=["one-lane", "three-lane"])
class TestRequestQueue:
    """What the single server's FIFO and a replica's tiered queue share.

    Plain requests all have priority 0, so they fill one lane of either
    queue; what the lanes add is in ``tests/fleet/test_tiers.py``.
    """

    def test_fifo_order(self, lanes):
        queue = RequestQueue(capacity=4, lanes=lanes)
        for i in range(3):
            queue.push(make_request(i))
        assert [r.request_id for r in queue] == [0, 1, 2]
        assert [queue.pop().request_id for _ in range(3)] == [0, 1, 2]

    def test_push_beyond_capacity_raises_typed_overloaded(self, lanes):
        queue = RequestQueue(capacity=2, lanes=lanes)
        queue.push(make_request(0))
        queue.push(make_request(1))
        assert queue.full
        with pytest.raises(Overloaded, match="^queue full at depth 2$") as exc_info:
            queue.push(make_request(2))
        assert exc_info.value.reason == "queue_full"
        assert exc_info.value.queue_depth == 2
        assert len(queue) == 2  # rejection does not mutate the queue

    def test_pop_empty_raises(self, lanes):
        with pytest.raises(IndexError):
            RequestQueue(capacity=1, lanes=lanes).pop()

    def test_peek_does_not_remove(self, lanes):
        queue = RequestQueue(capacity=2, lanes=lanes)
        assert queue.peek() is None
        queue.push(make_request(7))
        assert queue.peek().request_id == 7
        assert len(queue) == 1

    def test_len_follows_push_pop_and_drain(self, lanes):
        queue = RequestQueue(capacity=3, lanes=lanes)
        for i in range(3):
            queue.push(make_request(i))
        queue.pop()
        assert len(queue) == 2 and not queue.full
        assert [r.request_id for r in queue.drain()] == [1, 2]
        assert len(queue) == 0 and queue.peek() is None
        queue.push(make_request(3))  # the freed capacity is usable again
        assert len(queue) == 1

    def test_capacity_and_lanes_must_be_positive(self, lanes):
        with pytest.raises(ValueError):
            RequestQueue(capacity=0, lanes=lanes)
        with pytest.raises(ValueError):
            RequestQueue(capacity=1, lanes=0)


class TestAdmissionController:
    def test_admit_enqueues(self):
        queue = RequestQueue(capacity=2)
        controller = AdmissionController(queue)
        controller.admit(make_request(0), now=0.0)
        assert len(queue) == 1

    def test_default_deadline_applied(self):
        queue = RequestQueue(capacity=2)
        controller = AdmissionController(queue, default_deadline=0.5)
        request = make_request(0, arrival=1.0)
        controller.admit(request, now=1.0)
        assert request.deadline == 0.5

    def test_explicit_deadline_kept(self):
        controller = AdmissionController(RequestQueue(capacity=2), default_deadline=0.5)
        request = make_request(0, deadline=2.0)
        controller.admit(request, now=0.0)
        assert request.deadline == 2.0

    def test_expired_on_arrival_is_shed_as_deadline(self):
        controller = AdmissionController(RequestQueue(capacity=2), default_deadline=0.1)
        with pytest.raises(Overloaded) as exc_info:
            controller.admit(make_request(0, arrival=0.0), now=5.0)
        assert exc_info.value.reason == "deadline"

    def test_deadline_expires_after_it_passes(self):
        request = make_request(0, arrival=0.0, deadline=1.0)
        assert not request.expired(now=0.5)
        assert request.expired(now=1.5)

    def test_no_deadline_never_expires(self):
        request = make_request(0, arrival=0.0, deadline=None)
        assert not request.expired(now=1e9)
