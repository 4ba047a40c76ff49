"""The durable result cache: a disk tier beneath the in-memory LRU.

:class:`PersistentResultCache` is a drop-in
:class:`~repro.service.cache.ResultCache` whose misses fall through to
the sqlite rows of a :class:`~repro.store.db.DiagnosisStore` before
being declared misses.  Every write goes through to disk in the same
call (write-through, not write-back — a SIGKILL after ``put`` returns
can cost at most sqlite's uncommitted tail, which WAL replay discards
cleanly), so a restarted process re-opens the store warm: the first
``get`` for a previously-seen content hash is a *disk* hit that
re-promotes the entry into memory.

The integrity contract is the same on both tiers — entries are sealed
``(canonical JSON blob, sha256 digest)`` pairs and the digest is
re-verified on every read.  A corrupt disk row is purged by the store,
counted in ``corruptions`` here, and surfaces as a plain miss.

Namespacing: the fleet engine keys tenant traffic as
``"<tenant>::<content_hash>"`` (see :data:`NAMESPACE_SEP`) and bare
content hashes otherwise.  The memory tier treats the composite key as
opaque — isolation falls out of key inequality — while the disk tier
splits it so sqlite rows carry a real ``namespace`` column that keeps
tenant rows apart on disk (tests poison one row by it, through
``tests/helpers.py::corrupt_cache_row``).  Bare keys land in the shared
``public`` namespace, preserving pre-tenant behavior byte-for-byte.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

from repro.service.cache import ResultCache, _seal
from repro.service.jobs import JobResult
from repro.store.db import PUBLIC_TENANT, DiagnosisStore

__all__ = ["PersistentResultCache", "NAMESPACE_SEP", "namespaced_key"]

#: Separator between a tenant namespace and the content hash in cache
#: keys.  Content hashes are hex sha256 and tenant ids reject ``:``, so
#: the split is unambiguous.
NAMESPACE_SEP = "::"

#: Row bound of the store's cache table; the least recently used rows
#: are evicted past it.
DISK_CAPACITY = 4096


def namespaced_key(key: str, tenant: Optional[str] = None) -> str:
    """The cache key for ``key`` as seen by ``tenant`` (None = public)."""
    if not tenant or tenant == PUBLIC_TENANT:
        return key
    return f"{tenant}{NAMESPACE_SEP}{key}"


class PersistentResultCache(ResultCache):
    """Two-tier sealed result cache: memory LRU over sqlite rows."""

    def __init__(self, store: DiagnosisStore, capacity: int = 256) -> None:
        super().__init__(capacity=capacity)
        self.store = store
        self.disk_evictions = 0

    @staticmethod
    def _split(key: str) -> Tuple[str, str]:
        namespace, sep, bare = key.partition(NAMESPACE_SEP)
        if sep:
            return namespace, bare
        return PUBLIC_TENANT, key

    # ------------------------------------------------------------------
    def _get_disk(self, key: str) -> Optional[JobResult]:
        namespace, bare = self._split(key)
        status, blob = self.store.cache_get(namespace, bare)
        if status == "corrupt":
            with self._lock:
                self.corruptions += 1
            return None
        if status != "hit" or blob is None:
            return None
        try:
            result = JobResult.from_dict(json.loads(blob))
        except (ValueError, KeyError, TypeError):
            # Decodes-but-malformed is corruption too: the digest seal
            # matched a blob this build can't deserialize.
            with self._lock:
                self.corruptions += 1
            return None
        # Promote to the memory tier so the next lookup is a mem hit.
        blob2, digest = _seal(result)
        self._put_mem(key, result, blob2, digest)
        return result

    def put(self, key: str, result: JobResult) -> None:
        """Store in memory and write through to the sqlite tier."""
        if self.capacity == 0:
            return
        blob, digest = _seal(result)
        self._put_mem(key, result, blob, digest)
        namespace, bare = self._split(key)
        evicted = self.store.cache_put(
            namespace, bare, blob, digest, max_rows=DISK_CAPACITY
        )
        if evicted:
            with self._lock:
                self.disk_evictions += evicted

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        snap = super().snapshot()
        snap["disk_capacity"] = DISK_CAPACITY
        snap["disk_evictions"] = self.disk_evictions
        snap["disk_rows"] = self.store.cache_rows()
        return snap
