"""Store-backed token-bucket quotas: one budget per tenant, fleet-wide.

A per-process request counter would let a cluster of R replicas
quietly admit R×N per window, so the budget lives in the store file
itself: one ``quota_buckets`` row
per tenant, refilled and debited atomically inside a single ``BEGIN
IMMEDIATE`` transaction (:meth:`DiagnosisStore.quota_debit`).  Every
replica sharing the file — and every thread inside each replica —
competes for the *same* tokens, so a tenant provisioned for N requests
per interval gets N across the whole fleet, not N per process.

Bucket semantics: capacity ``quota_limit`` tokens, continuous refill at
``quota_limit / quota_interval`` tokens per second.  A rejection
reports the float seconds until the next token accrues at that rate —
which the server surfaces verbatim as ``Retry-After``.  Limit 0 means
unlimited, and anonymous (public) traffic is never quota-limited —
quotas are a property of *provisioned* tenants.

Failure posture: a sqlite error during a debit *admits* the request
and counts the error.  Quota is a fairness mechanism, not a security
boundary; a glitching disk should degrade enforcement, never take the
data path down with it.
"""

from __future__ import annotations

import sqlite3
import time
from typing import Callable, Dict

from repro.store.db import DiagnosisStore, TenantRecord
from repro.store.tenants import QuotaDecision

__all__ = ["TokenBucketQuota"]


class TokenBucketQuota:
    """Per-tenant token buckets persisted in the store (cluster-shared).

    The server boundary calls ``check(tenant) -> QuotaDecision`` once
    per request.  The clock is injectable but defaults to wall
    time — replicas in separate processes must agree on the refill
    timeline, and wall clocks are what they share.
    """

    def __init__(
        self, store: DiagnosisStore, clock: Callable[[], float] = time.time
    ) -> None:
        self.store = store
        self._clock = clock
        self.rejections = 0
        self.errors = 0

    def check(self, tenant: TenantRecord) -> QuotaDecision:
        """Admit or reject one request against the tenant's shared bucket."""
        if tenant.quota_limit <= 0:
            return QuotaDecision(True, remaining=-1)
        try:
            allowed, retry_after, remaining = self.store.quota_debit(
                tenant.tenant_id,
                float(tenant.quota_limit),
                float(tenant.quota_interval),
                now=self._clock(),
            )
        except sqlite3.DatabaseError:
            self.errors += 1
            return QuotaDecision(True, remaining=-1)
        if not allowed:
            self.rejections += 1
            return QuotaDecision(False, retry_after=retry_after)
        return QuotaDecision(True, remaining=int(remaining))

    def snapshot(self) -> Dict:
        try:
            buckets = self.store.quota_levels()
        except sqlite3.DatabaseError:
            buckets = {}
        return {
            "kind": "token-bucket",
            "tenants_tracked": len(buckets),
            "rejections": self.rejections,
            "errors": self.errors,
            "buckets": buckets,
        }
