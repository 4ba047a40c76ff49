"""Tenant resolution at the serving boundary.

The store owns tenant *identity* (API-key digests, quota parameters);
this module owns the hot-path mechanics the server needs per request:

* :class:`TenantRegistry` — resolves ``Authorization: Bearer`` /
  ``X-Api-Key`` credentials to a :class:`~repro.store.db.TenantRecord`
  through a small TTL cache, so steady-state auth costs a dict lookup,
  not a sqlite query, while re-provisioning still takes effect within
  the TTL;
* :class:`QuotaDecision` — one admission verdict of the store-backed
  :class:`repro.store.quota.TokenBucketQuota`, whose bucket lives in
  the store file so a whole replica fleet shares one budget per tenant.

The auth cache is process-local by design: it is just a read-through
memo over the shared store.  Its TTL doubles as the advertised
revocation latency: a rotated-away or revoked key keeps working from
the cache for at most :data:`TTL` seconds before the next store read
rejects it.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro.store.db import DiagnosisStore, TenantRecord

__all__ = ["TenantRegistry", "QuotaDecision"]

#: Seconds a resolved API key stays cached; also the revocation latency.
TTL = 5.0


class QuotaDecision:
    """One admission verdict: allowed, or retry after ``retry_after``."""

    __slots__ = ("allowed", "retry_after", "remaining")

    def __init__(self, allowed: bool, retry_after: float = 0.0, remaining: int = 0) -> None:
        self.allowed = allowed
        self.retry_after = retry_after
        self.remaining = remaining

    def __bool__(self) -> bool:
        return self.allowed


class TenantRegistry:
    """Read-through, TTL-cached API-key → tenant resolution."""

    def __init__(
        self,
        store: DiagnosisStore,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.store = store
        self._clock = clock
        self._lock = threading.Lock()
        # api_key -> (expires_at, record-or-None); unknown keys are
        # cached too so a flood of junk keys doesn't hammer sqlite.
        self._cache: Dict[str, Tuple[float, Optional[TenantRecord]]] = {}

    def resolve(self, api_key: str) -> Optional[TenantRecord]:
        if not api_key:
            return None
        now = self._clock()
        with self._lock:
            hit = self._cache.get(api_key)
            if hit is not None and hit[0] > now:
                return hit[1]
        record = self.store.resolve_api_key(api_key)
        with self._lock:
            if len(self._cache) >= 1024:  # junk-key flood bound
                self._cache.clear()
            self._cache[api_key] = (now + TTL, record)
        return record
