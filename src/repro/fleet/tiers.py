"""Per-tenant admission quotas.

:class:`TenantQuota` is the fleet-wide admission counter: each tenant may
have at most ``quota`` requests outstanding (queued anywhere in the
fleet); beyond it, admission sheds with reason ``quota`` — per-customer
backpressure, so one tenant's burst cannot monopolise every queue.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.fleet.request import Tenant


class TenantQuota:
    """Fleet-wide outstanding-request counter per tenant."""

    def __init__(self) -> None:
        self._outstanding: Dict[str, int] = {}

    def try_acquire(self, tenant: Optional[Tenant]) -> bool:
        """Reserve one slot for ``tenant``; False when its quota is spent."""
        if tenant is None:
            return True
        held = self._outstanding.get(tenant.name, 0)
        if tenant.quota is not None and held >= tenant.quota:
            return False
        self._outstanding[tenant.name] = held + 1
        return True

    def release(self, tenant: Optional[Tenant]) -> None:
        """Free one slot (the request left every queue, whatever its fate)."""
        if tenant is None:
            return
        held = self._outstanding.get(tenant.name, 0)
        if held <= 0:
            raise RuntimeError(f"quota underflow for tenant {tenant.name!r}")
        self._outstanding[tenant.name] = held - 1


__all__ = ["TenantQuota"]
