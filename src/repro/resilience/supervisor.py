"""Self-healing supervision for the fleet engine.

The paper's engine ran one diagnosis at a time and could simply crash;
a fleet serving heavy traffic needs the failure-handling policy FLAMES
applies to *measurements* — tolerate partial conflict, keep producing
ranked answers — applied to its own *infrastructure*.  Two mechanisms,
both deterministic (counted in events, never in wall-clock time):

* **poison-job quarantine** — a job whose content keeps failing is
  eventually the job's fault, not the fleet's.  After
  :data:`QUARANTINE_AFTER` recorded failures for one content hash the job is
  quarantined: it returns a structured ``quarantined``
  :class:`~repro.service.jobs.JobResult` immediately and never re-enters
  the retry loop (or the pool at all);
* **worker health scoring** — an exponentially-weighted success score
  per pool; sustained crashes/hangs drive the score below
  :data:`HEALTH_FLOOR` and the engine proactively evicts and restarts the
  pool (the ``concurrent.futures`` granularity of "restart the sick
  worker").
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.service.telemetry import Telemetry

__all__ = ["EwmaHealth", "FleetSupervisor"]

#: Recorded failures of one content hash before the job is quarantined.
QUARANTINE_AFTER = 3

#: Weight of the old score when an outcome folds into a health score.
HEALTH_DECAY = 0.7

#: A health score below this marks the entity for eviction.
HEALTH_FLOOR = 0.3


class EwmaHealth:
    """An exponentially-weighted success score for one supervised entity.

    The scoring rule the :class:`FleetSupervisor` applies to its worker
    pool, extracted so the cluster's :class:`~repro.cluster.replicas.
    ReplicaManager` can score each server replica with the identical
    machinery: every outcome folds in as
    ``HEALTH_DECAY * score + (1 - HEALTH_DECAY) * (1 if ok else 0)``,
    and a score below :data:`HEALTH_FLOOR` marks the entity for
    eviction.  Deterministic — counted in events, never in wall-clock
    time.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._score = 1.0

    @property
    def score(self) -> float:
        with self._lock:
            return self._score

    def record(self, ok: bool) -> None:
        with self._lock:
            self._score = HEALTH_DECAY * self._score + (1.0 - HEALTH_DECAY) * (
                1.0 if ok else 0.0
            )

    def below_floor(self) -> bool:
        with self._lock:
            return self._score < HEALTH_FLOOR

    def reset(self) -> None:
        """Restart optimism: a fresh entity starts perfectly healthy."""
        with self._lock:
            self._score = 1.0


class FleetSupervisor:
    """Health scoring and quarantine for one engine.

    Thread-safe; one instance is shared by every execution path of a
    :class:`~repro.service.pool.FleetEngine` (serial, thread pool, the
    server's ``run_job``).  Quarantine and health are scored engine-side
    from the results coming back, so they cover every executor kind.
    The engine that owns it assigns :attr:`telemetry`.
    """

    def __init__(self) -> None:
        self.telemetry: Optional["Telemetry"] = None
        self._lock = threading.Lock()
        self._failures: Dict[str, int] = {}
        self._quarantined: Dict[str, str] = {}  # content hash -> first error
        self._health = EwmaHealth()
        self.evictions = 0

    # ------------------------------------------------------------------
    # Poison-job quarantine
    # ------------------------------------------------------------------
    def is_quarantined(self, key: str) -> bool:
        with self._lock:
            return key in self._quarantined

    def quarantine_reason(self, key: str) -> str:
        with self._lock:
            error = self._quarantined.get(key, "")
        detail = f": {error}" if error else ""
        return (
            f"quarantined after {QUARANTINE_AFTER} failures{detail}"
        )

    def record_failure(self, key: str, error: str = "") -> bool:
        """Count one failed attempt for ``key``; True once quarantined.

        The count is cumulative across batches — a job that crashes its
        retry budget in one batch and shows up again in the next is
        exactly the poison this mechanism exists for.
        """
        with self._lock:
            if key in self._quarantined:
                return True
            count = self._failures.get(key, 0) + 1
            self._failures[key] = count
            if count < QUARANTINE_AFTER:
                return False
            self._quarantined[key] = error.splitlines()[0] if error else ""
        if self.telemetry is not None:
            self.telemetry.incr("jobs_quarantined_total")
            self.telemetry.event("job_quarantined", hash=key[:12])
        return True

    def record_job_success(self, key: str) -> None:
        """A success clears the failure streak (transient blips forgiven)."""
        with self._lock:
            self._failures.pop(key, None)

    # ------------------------------------------------------------------
    # Worker health
    # ------------------------------------------------------------------
    def record_worker_outcome(self, ok: bool) -> None:
        """Fold one worker outcome into the EWMA health score.

        ``ok`` means the worker *functioned* — it returned any structured
        result, including a faulty diagnosis.  Crashes, hangs and broken
        pools count against health.
        """
        self._health.record(ok)

    def should_evict(self) -> bool:
        """True when the pool's health warrants an eviction + restart."""
        return self._health.below_floor()

    def record_eviction(self) -> None:
        """The engine restarted the pool; reset the score optimistically."""
        self._health.reset()
        with self._lock:
            self.evictions += 1
        if self.telemetry is not None:
            self.telemetry.incr("worker_evictions")
            self.telemetry.event("worker_evicted")

    def snapshot(self) -> Dict:
        health = self._health.score
        with self._lock:
            quarantined = len(self._quarantined)
        return {
            "health": round(health, 4),
            "evictions": self.evictions,
            "quarantined": quarantined,
        }
