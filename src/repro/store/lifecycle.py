"""Supervised store maintenance: checkpoint, retention, backup, scrub.

A store that only grows, checkpoints never and is scrubbed never will
degrade slowly under sustained traffic — the WAL balloons, history
dominates the file, bit rot sits undetected until a read trips on it.
:class:`StoreMaintenance` is the proactive-upkeep loop that prevents
that, running inside batch/serve/cluster whenever ``--store`` is armed:

* **checkpointing** — a periodic ``wal_checkpoint(TRUNCATE)`` (plus
  incremental vacuum) on a *jittered* interval, so a fleet of replicas
  pointed at one file doesn't checkpoint in lockstep.  A busy
  checkpoint (a reader pinned the WAL) backs the interval off
  multiplicatively instead of spinning against the lock;
* **retention** — age- and row-count windows for ``history`` and an
  age window for cache rows, enforced in bounded delete batches
  (:meth:`DiagnosisStore.retain_history`) so a live writer never
  stalls behind a giant ``DELETE``;
* **backup / scrub** — on-demand passes over the sqlite backup API and
  the sha256 seals (:meth:`DiagnosisStore.backup` / ``scrub``), run by
  ``repro store backup|scrub``, not by this loop.  The ``/metrics``
  block keeps its ``last_scrub`` (always null) and ``backups`` (always
  0) keys so its shape does not change.

One instance per store *file* is the intended topology: the server
owns it in single-process mode, the cluster gateway owns it for a
replica fleet (replicas run with the lifecycle disabled).  Every
maintenance error is counted and swallowed — upkeep must never take
the data path down.
"""

from __future__ import annotations

import random
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.store.db import DiagnosisStore

__all__ = ["RetentionPolicy", "LifecycleConfig", "StoreMaintenance"]

#: Default history window: 30 days or 100k rows, whichever bites first.
#: Documented in README "Store lifecycle"; override with --retain-history.
DEFAULT_HISTORY_MAX_AGE = 30 * 86400.0
DEFAULT_HISTORY_MAX_ROWS = 100_000

#: Rows one retention ``DELETE`` removes at most.
RETENTION_BATCH = 500

#: Retention batches per tick, so one tick never stalls a live writer.
MAX_BATCHES_PER_TICK = 4

#: +/- fraction of the checkpoint interval drawn at random per wait.
JITTER = 0.2

#: Interval multiplier after a busy checkpoint.
BACKOFF_FACTOR = 2.0

#: Cap on the accumulated multiplier.
MAX_BACKOFF = 8.0


@dataclass
class RetentionPolicy:
    """What to keep: 0 disables any individual window."""

    history_max_age: float = DEFAULT_HISTORY_MAX_AGE
    history_max_rows: int = DEFAULT_HISTORY_MAX_ROWS
    cache_max_age: float = 0.0


@dataclass
class LifecycleConfig:
    """Tuning for the maintenance loop."""

    checkpoint_interval: float = 60.0
    retention: RetentionPolicy = field(default_factory=RetentionPolicy)

    @classmethod
    def from_settings(cls, settings) -> "LifecycleConfig":
        """From a serve/cluster config's ``checkpoint_interval`` and
        ``retain_*`` fields (the retention windows are in days there)."""
        return cls(
            checkpoint_interval=settings.checkpoint_interval,
            retention=RetentionPolicy(
                history_max_age=settings.retain_history_days * 86400.0,
                history_max_rows=settings.retain_history_rows,
                cache_max_age=settings.retain_cache_days * 86400.0,
            ),
        )


class StoreMaintenance:
    """The background upkeep loop over one :class:`DiagnosisStore`.

    ``start()`` runs ticks on a daemon thread; ``maybe_tick()`` is the
    threadless alternative for batch mode (call it between batches — it
    ticks only once the interval has elapsed, amortising upkeep into
    the workload).  Both paths share ``tick()``, which is also what
    tests drive directly.
    """

    def __init__(
        self,
        store: DiagnosisStore,
        config: Optional[LifecycleConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        seed: Optional[int] = None,
    ) -> None:
        self.store = store
        self.config = config or LifecycleConfig()
        self._clock = clock
        self._rng = random.Random(seed)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._backoff = 1.0
        self._last_tick: Optional[float] = None
        self._counters: Dict[str, int] = {
            "ticks": 0,
            "checkpoints": 0,
            "checkpoint_busy": 0,
            "history_deleted": 0,
            "cache_deleted": 0,
            "errors": 0,
        }
        self._last_checkpoint: Dict[str, int] = {"busy": 0, "log": 0, "done": 0}

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the daemon loop (no-op when the interval is disabled)."""
        if self.config.checkpoint_interval <= 0 or self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="store-maintenance", daemon=True
        )
        self._thread.start()

    def stop(self, final_tick: bool = True) -> None:
        """Stop the loop; by default runs one last tick so the WAL is
        checkpointed before the process exits."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)
        if final_tick:
            self.tick()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _interval(self) -> float:
        base = self.config.checkpoint_interval * self._backoff
        return base * (1.0 + self._rng.uniform(-JITTER, JITTER))

    def _run(self) -> None:
        while not self._stop.wait(self._interval()):
            self.tick()

    # ------------------------------------------------------------------
    # One pass of upkeep
    # ------------------------------------------------------------------
    def tick(self, now: Optional[float] = None) -> Dict:
        """Checkpoint + retention, once.  Never raises; errors are counted."""
        with self._lock:
            self._counters["ticks"] += 1
            self._last_tick = self._clock()
            result: Dict = {}
            try:
                busy, log, done = self.store.checkpoint()
                self._counters["checkpoints"] += 1
                self._last_checkpoint = {"busy": busy, "log": log, "done": done}
                if busy:
                    self._counters["checkpoint_busy"] += 1
                    self._backoff = min(self._backoff * BACKOFF_FACTOR, MAX_BACKOFF)
                else:
                    self._backoff = 1.0
                result["checkpoint"] = self._last_checkpoint
            except sqlite3.DatabaseError:
                self._counters["errors"] += 1
            result["history_deleted"] = self._retain(now)
            result["cache_deleted"] = self._retain_cache(now)
            return result

    def _retain(self, now: Optional[float]) -> int:
        policy = self.config.retention
        if policy.history_max_age <= 0 and policy.history_max_rows <= 0:
            return 0
        deleted = 0
        try:
            for _ in range(MAX_BATCHES_PER_TICK):
                got = self.store.retain_history(
                    max_age=policy.history_max_age,
                    max_rows=policy.history_max_rows,
                    batch=RETENTION_BATCH,
                    now=now,
                )
                deleted += got
                if got < RETENTION_BATCH:
                    break
        except sqlite3.DatabaseError:
            self._counters["errors"] += 1
        self._counters["history_deleted"] += deleted
        return deleted

    def _retain_cache(self, now: Optional[float]) -> int:
        policy = self.config.retention
        if policy.cache_max_age <= 0:
            return 0
        deleted = 0
        try:
            for _ in range(MAX_BATCHES_PER_TICK):
                got = self.store.retain_cache(
                    policy.cache_max_age, batch=RETENTION_BATCH, now=now
                )
                deleted += got
                if got < RETENTION_BATCH:
                    break
        except sqlite3.DatabaseError:
            self._counters["errors"] += 1
        self._counters["cache_deleted"] += deleted
        return deleted

    def maybe_tick(self, now: Optional[float] = None) -> Optional[Dict]:
        """Inline, interval-gated tick for threadless (batch) callers."""
        if self.config.checkpoint_interval <= 0:
            return None
        if self._last_tick is not None:
            elapsed = self._clock() - self._last_tick
            if elapsed < self.config.checkpoint_interval * self._backoff:
                return None
        return self.tick(now)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """The lifecycle section of ``/metrics`` and ``/readyz``."""
        with self._lock:
            last = dict(self._last_checkpoint)
            counters = dict(self._counters)
            backoff = self._backoff
        return {
            "running": self.running,
            "backoff": backoff,
            "checkpoint_lag_frames": max(0, last["log"] - last["done"]),
            "wal_bytes": self.store.wal_size(),
            "last_checkpoint": last,
            "last_scrub": None,
            "backups": 0,
            **counters,
        }
