"""The persistence plane: durable cache, durable experience, tenants.

``repro.store`` gives the fleet's process-lifetime state a sqlite home
(stdlib ``sqlite3``, WAL mode) so restarts are warm and callers can be
isolated per tenant:

* :class:`DiagnosisStore` — the one-file schema: sealed cache rows,
  versioned per-tenant experience rules, API-key tenant records and
  diagnosis history (:mod:`repro.store.db`);
* :class:`PersistentResultCache` — the two-tier result cache the fleet
  engine swaps in when a store is armed (:mod:`repro.store.cache`);
* :class:`TenantRegistry` — auth resolution at the server boundary
  (:mod:`repro.store.tenants`);
* :class:`TokenBucketQuota` — store-backed token buckets so a whole
  replica fleet shares one budget per tenant (:mod:`repro.store.quota`);
* :class:`StoreMaintenance` — the supervised upkeep loop: jittered WAL
  checkpoints, bounded-batch retention, online backup and seal scrub
  (:mod:`repro.store.lifecycle`);
* :func:`build_report` — fleet-health summaries over persisted history
  (:mod:`repro.store.reports`).

Everything degrades away cleanly: without ``--store`` no module here
is imported on the hot path and behavior is byte-identical to the
in-memory planes.
"""

from repro.store.cache import NAMESPACE_SEP, PersistentResultCache, namespaced_key
from repro.store.db import PUBLIC_TENANT, DiagnosisStore, StoreError, TenantRecord
from repro.store.lifecycle import LifecycleConfig, RetentionPolicy, StoreMaintenance
from repro.store.quota import TokenBucketQuota
from repro.store.reports import build_report
from repro.store.tenants import QuotaDecision, TenantRegistry

__all__ = [
    "DiagnosisStore",
    "StoreError",
    "TenantRecord",
    "PUBLIC_TENANT",
    "PersistentResultCache",
    "NAMESPACE_SEP",
    "namespaced_key",
    "TenantRegistry",
    "QuotaDecision",
    "TokenBucketQuota",
    "LifecycleConfig",
    "RetentionPolicy",
    "StoreMaintenance",
    "build_report",
]
