"""SLA lanes of a replica's queue and per-tenant admission quotas.

What the queue does whatever its lane count (capacity, peek/pop on
empty, the ``Overloaded`` it raises) is in
``tests/serve/test_queue_admission.py``, run at one lane and at three.
"""

import numpy as np
import pytest

from repro.fleet import SLA_TIERS, Tenant, TenantQuota
from repro.fleet.request import FleetRequest
from repro.graph import GraphSample
from repro.serve import Overloaded, RequestQueue

GOLD = Tenant("g", tier="gold")
SILVER = Tenant("s", tier="silver")
BRONZE = Tenant("b", tier="bronze")


def _request(request_id, tenant=None):
    sample = GraphSample(
        edge_index=np.zeros((2, 1), dtype=np.int64),
        x=np.zeros((2, 3), dtype=np.float32),
        y=0,
    )
    return FleetRequest(
        request_id=request_id, sample=sample, arrival_time=0.0, tenant=tenant
    )


def replica_queue(capacity):
    """The queue as :class:`repro.fleet.Replica` builds it."""
    return RequestQueue(capacity, lanes=len(SLA_TIERS))


class TestSlaLanes:
    def test_pop_is_priority_then_fifo(self):
        queue = replica_queue(8)
        queue.push(_request(0, BRONZE))
        queue.push(_request(1, GOLD))
        queue.push(_request(2, SILVER))
        queue.push(_request(3, GOLD))
        order = [queue.pop().request_id for _ in range(4)]
        assert order == [1, 3, 2, 0]

    def test_peek_is_the_highest_priority_head(self):
        queue = replica_queue(4)
        queue.push(_request(0, SILVER))
        queue.push(_request(1, GOLD))
        assert queue.peek().request_id == 1
        assert len(queue) == 2

    def test_capacity_is_shared_across_tiers(self):
        queue = replica_queue(2)
        queue.push(_request(0, GOLD))
        queue.push(_request(1, BRONZE))
        assert queue.full
        with pytest.raises(Overloaded):
            queue.push(_request(2, GOLD))

    def test_drain_returns_priority_order_and_empties(self):
        queue = replica_queue(8)
        queue.push(_request(0, BRONZE))
        queue.push(_request(1, GOLD))
        drained = queue.drain()
        assert [r.request_id for r in drained] == [1, 0]
        assert len(queue) == 0

    def test_iteration_yields_priority_order(self):
        queue = replica_queue(8)
        queue.push(_request(0, BRONZE))
        queue.push(_request(1, GOLD))
        assert [r.request_id for r in queue] == [1, 0]

    def test_tenantless_requests_queue_as_bronze(self):
        queue = replica_queue(8)
        queue.push(_request(0))
        queue.push(_request(1, BRONZE))
        queue.push(_request(2, GOLD))
        assert [r.request_id for r in queue] == [2, 0, 1]  # FIFO within the bronze lane


class TestTenantQuota:
    def test_unquotaed_tenant_always_admits(self):
        quota = TenantQuota()
        tenant = Tenant("t")
        for _ in range(100):
            assert quota.try_acquire(tenant)

    def test_tenantless_requests_bypass_quota(self):
        assert TenantQuota().try_acquire(None)

    def test_quota_bounds_outstanding(self):
        quota = TenantQuota()
        tenant = Tenant("t", quota=2)
        assert quota.try_acquire(tenant)
        assert quota.try_acquire(tenant)
        assert not quota.try_acquire(tenant)

    def test_release_frees_a_slot(self):
        quota = TenantQuota()
        tenant = Tenant("t", quota=1)
        assert quota.try_acquire(tenant)
        assert not quota.try_acquire(tenant)
        quota.release(tenant)
        assert quota.try_acquire(tenant)

    def test_quotas_are_per_tenant(self):
        quota = TenantQuota()
        first = Tenant("a", quota=1)
        second = Tenant("b", quota=1)
        assert quota.try_acquire(first)
        assert quota.try_acquire(second)
        assert not quota.try_acquire(first)

    def test_release_underflow_raises(self):
        quota = TenantQuota()
        with pytest.raises(RuntimeError, match="underflow"):
            quota.release(Tenant("t"))

    def test_release_none_is_noop(self):
        TenantQuota().release(None)
