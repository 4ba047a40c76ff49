"""Content-addressed LRU result cache with entry integrity checking.

Repair-shop fleets repeat themselves: the same golden design with the
same symptom shows up over and over.  Keyed on
:attr:`~repro.service.jobs.DiagnosisJob.content_hash`, the cache lets a
repeated unit skip the whole fuzzy-propagation pass and replay the
stored :class:`~repro.service.jobs.JobResult`.

Only *completed* results are worth keeping (errors are cheap to
reproduce and usually transient); the :class:`FleetEngine` enforces
that policy, the cache itself is policy-free.  Every operation —
including ``len``, membership tests and ``snapshot`` — takes the
internal lock, so one instance can be shared freely between the
diagnosis server's asyncio event loop and its executor threads;
``get``/``put`` maintain hit/miss/eviction counters that feed the
service telemetry.

**Integrity:** each entry stores a canonical JSON serialisation of the
result alongside its sha256 digest, and every ``get`` re-verifies the
digest before replaying.  A corrupted entry — bit rot in a future
persistent backend, a buggy writer, or the chaos plane's
``cache.corrupt`` injection — is purged and counted as a miss (the
``corruptions`` counter records it); a poisoned result is *never*
served and a corrupt hit *never* raises.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.resilience import faults
from repro.service.jobs import JobResult

__all__ = ["ResultCache"]


def _seal(result: JobResult) -> Tuple[str, str]:
    """Canonical blob + sha256 digest for one stored result."""
    blob = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return blob, hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """An LRU mapping ``content_hash -> JobResult`` with usage counters."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be non-negative")
        self.capacity = capacity
        # key -> [result, blob, digest]; the blob/digest pair is the
        # integrity seal verified on every get.
        self._entries: "OrderedDict[str, list]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.hits_mem = 0
        self.hits_disk = 0
        self.misses = 0
        self.evictions = 0
        self.corruptions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Membership test without touching recency or the counters."""
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> Optional[JobResult]:
        """Look up a result, counting the hit/miss and refreshing recency.

        The memory tier is probed first, then ``_get_disk`` (a no-op in
        the in-memory base class; the persistent cache overrides it) —
        ``hits_mem``/``hits_disk`` record which tier answered and always
        sum to ``hits``.  The entry's integrity seal is verified on
        every path; a corrupt entry is purged and counted as a miss
        (plus ``corruptions``) — corruption degrades the hit rate, it
        never crashes a batch or serves a poisoned result.
        """
        result = self._get_mem(key)
        if result is not None:
            with self._lock:
                self.hits += 1
                self.hits_mem += 1
            return result
        result = self._get_disk(key)
        if result is not None:
            with self._lock:
                self.hits += 1
                self.hits_disk += 1
            return result
        with self._lock:
            self.misses += 1
        return None

    def _get_mem(self, key: str) -> Optional[JobResult]:
        """Memory-tier probe: verify the seal, purge on corruption.

        Counts only ``corruptions`` — the hit/miss bookkeeping lives in
        the public ``get`` so subclasses can layer tiers underneath.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            result, blob, digest = entry
            if faults.maybe_fire("cache.corrupt", key) is not None:
                # Deterministic chaos: flip the stored blob so the
                # integrity check below sees real corruption.
                blob = entry[1] = blob[:-1] + ("x" if blob[-1:] != "x" else "y")
            if hashlib.sha256(blob.encode()).hexdigest() != digest:
                del self._entries[key]
                self.corruptions += 1
                return None
            self._entries.move_to_end(key)
            return result

    def _get_disk(self, key: str) -> Optional[JobResult]:
        """Disk-tier probe — nothing beneath the in-memory base class."""
        return None

    def put(self, key: str, result: JobResult) -> None:
        """Store a result, evicting the least-recently-used overflow."""
        if self.capacity == 0:
            return
        blob, digest = _seal(result)
        self._put_mem(key, result, blob, digest)

    def _put_mem(self, key: str, result: JobResult, blob: str, digest: str) -> None:
        with self._lock:
            self._entries[key] = [result, blob, digest]
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop all entries (the counters keep their history)."""
        with self._lock:
            self._entries.clear()

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def snapshot(self) -> Dict:
        """Counters and occupancy as one consistent plain dict."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self.hits,
                "hits_mem": self.hits_mem,
                "hits_disk": self.hits_disk,
                "misses": self.misses,
                "evictions": self.evictions,
                "corruptions": self.corruptions,
                "hit_rate": round(self.hits / total, 4) if total else 0.0,
            }
