"""Store lifecycle tests: checkpointing, retention, backup, scrub, and
the maintenance loop that drives them.

Everything here runs against the real sqlite file — a checkpoint must
actually shrink the WAL, a backup must actually serve byte-identical
cache rows, a scrub must actually catch a flipped bit.
"""

import hashlib
import json
import sqlite3
import threading
import time

import pytest

from repro.store import (
    DiagnosisStore,
    LifecycleConfig,
    RetentionPolicy,
    StoreMaintenance,
    lifecycle,
)
from tests.store.test_db import _seal


@pytest.fixture
def store(tmp_path):
    with DiagnosisStore(tmp_path / "store.db") as db:
        yield db


def _fill_history(store, n, tenant="acme"):
    for i in range(n):
        store.record_history(tenant, f"u{i}", f"h{i}", "faulty", True, "R1", 0.01, False)


class TestCheckpoint:
    def test_truncate_checkpoint_empties_the_wal(self, store):
        for i in range(50):
            blob, digest = _seal({"i": i})
            store.cache_put("public", f"k{i}", blob, digest)
        assert store.wal_size() > 0
        busy, log, done = store.checkpoint()
        assert busy == 0
        assert done == log
        assert store.wal_size() == 0

    def test_checkpoint_is_harmless_when_idle(self, store):
        busy, _log, _done = store.checkpoint()
        assert busy == 0
        assert store.integrity_check() == "ok"


class TestRetention:
    def test_age_window_deletes_only_expired_rows(self, store):
        _fill_history(store, 10)
        cutoff = time.time() + 100  # everything is "older than 50s" from here
        assert store.retain_history(max_age=50.0, now=cutoff) == 10
        assert len(store.history_rows("acme")) == 0

    def test_age_window_spares_fresh_rows(self, store):
        _fill_history(store, 5)
        assert store.retain_history(max_age=3600.0) == 0
        assert len(store.history_rows("acme")) == 5

    def test_row_window_keeps_the_newest(self, store):
        _fill_history(store, 10)
        deleted = store.retain_history(max_rows=4)
        assert deleted == 6
        rows = store.history_rows("acme")
        assert [r["unit"] for r in rows] == ["u6", "u7", "u8", "u9"]

    def test_deletes_are_batch_bounded(self, store):
        _fill_history(store, 12)
        cutoff = time.time() + 100
        got = [store.retain_history(max_age=1.0, batch=5, now=cutoff) for _ in range(4)]
        assert got == [5, 5, 2, 0]

    def test_zero_windows_delete_nothing(self, store):
        _fill_history(store, 3)
        assert store.retain_history(max_age=0.0, max_rows=0) == 0
        assert len(store.history_rows("acme")) == 3

    def test_cache_age_window(self, store):
        blob, digest = _seal({"v": 1})
        store.cache_put("public", "old", blob, digest)
        assert store.retain_cache(3600.0) == 0  # fresh row survives
        assert store.retain_cache(10.0, now=time.time() + 100) == 1
        assert store.cache_get("public", "old") == ("miss", None)


class TestBackup:
    def test_backup_refuses_the_live_path(self, store):
        with pytest.raises(ValueError):
            store.backup(store.path)

    def test_backup_serves_byte_identical_cache_rows(self, store, tmp_path):
        blob, digest = _seal({"unit": "u1", "rank": [1, 2, 3]})
        store.cache_put("public", "k1", blob, digest)
        result = store.backup(tmp_path / "bk.db")
        assert result["bytes"] > 0
        with DiagnosisStore(tmp_path / "bk.db") as restored:
            status, got = restored.cache_get("public", "k1")
            assert status == "hit"
            assert got == blob
            assert restored.integrity_check() == "ok"

    def test_backup_under_live_writes_is_consistent(self, store, tmp_path):
        """A writer hammering the store while backup runs: the snapshot
        still opens clean and every row it holds verifies its seal."""
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                blob, digest = _seal({"i": i})
                store.cache_put("public", f"w{i}", blob, digest)
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            store.backup(tmp_path / "bk.db", pages=16)
        finally:
            stop.set()
            thread.join()
        with DiagnosisStore(tmp_path / "bk.db") as restored:
            assert restored.integrity_check() == "ok"
            scrub = restored.scrub()
            assert scrub["purged"] == 0


class TestScrub:
    def test_clean_store_scrubs_clean(self, store):
        blob, digest = _seal({"v": 1})
        store.cache_put("public", "k", blob, digest)
        assert store.scrub() == {"checked": 1, "purged": 0, "integrity": "ok"}

    def test_scrub_purges_a_tampered_row(self, store):
        for i in range(3):
            blob, digest = _seal({"i": i})
            store.cache_put("public", f"k{i}", blob, digest)
        # Flip bits behind the store's back: classic silent corruption.
        raw = sqlite3.connect(store.path)
        raw.execute(
            "UPDATE cache_entries SET blob = ? WHERE key = 'k1'",
            (json.dumps({"i": "poisoned"}),),
        )
        raw.commit()
        raw.close()
        result = store.scrub()
        assert result["checked"] == 3
        assert result["purged"] == 1
        assert result["integrity"] == "ok"
        assert store.cache_get("public", "k1") == ("miss", None)
        assert store.cache_get("public", "k0")[0] == "hit"
        assert store.cache_get("public", "k2")[0] == "hit"

    def test_seal_helper_matches_store_seal(self):
        blob, digest = _seal({"x": 1})
        assert hashlib.sha256(blob.encode()).hexdigest() == digest


class TestStoreMaintenance:
    def _config(self, **kw):
        kw.setdefault("checkpoint_interval", 60.0)
        kw.setdefault("retention", RetentionPolicy(history_max_age=0.0,
                                                   history_max_rows=0))
        return LifecycleConfig(**kw)

    def test_tick_checkpoints_and_retains(self, store, monkeypatch):
        _fill_history(store, 8)
        monkeypatch.setattr(lifecycle, "RETENTION_BATCH", 3)
        config = LifecycleConfig(
            retention=RetentionPolicy(history_max_age=1.0, history_max_rows=0),
        )
        maint = StoreMaintenance(store, config)
        result = maint.tick(now=time.time() + 100)
        assert result["checkpoint"]["busy"] == 0
        # 3-row batches, at most MAX_BATCHES_PER_TICK=4 per tick: all 8 go.
        assert result["history_deleted"] == 8
        assert len(store.history_rows("acme")) == 0

    def test_batches_per_tick_bound_the_work(self, store, monkeypatch):
        _fill_history(store, 10)
        monkeypatch.setattr(lifecycle, "MAX_BATCHES_PER_TICK", 2)
        monkeypatch.setattr(lifecycle, "RETENTION_BATCH", 3)
        config = LifecycleConfig(
            retention=RetentionPolicy(history_max_age=1.0, history_max_rows=0),
        )
        maint = StoreMaintenance(store, config)
        result = maint.tick(now=time.time() + 100)
        assert result["history_deleted"] == 6  # two batches, not all ten
        assert len(store.history_rows("acme")) == 4

    def test_busy_checkpoint_backs_off_and_recovers(self, store, monkeypatch):
        maint = StoreMaintenance(store, self._config(), seed=7)
        monkeypatch.setattr(store, "checkpoint", lambda truncate=True: (1, 10, 4))
        maint.tick()
        assert maint.snapshot()["backoff"] == 2.0
        maint.tick()
        maint.tick()
        maint.tick()
        assert maint.snapshot()["backoff"] == 8.0  # capped at MAX_BACKOFF
        assert maint.snapshot()["checkpoint_lag_frames"] == 6
        monkeypatch.setattr(store, "checkpoint", lambda truncate=True: (0, 10, 10))
        maint.tick()
        assert maint.snapshot()["backoff"] == 1.0

    def test_jittered_interval_stays_in_band(self, store):
        maint = StoreMaintenance(store, self._config(checkpoint_interval=100.0),
                                 seed=42)
        for _ in range(50):
            assert 80.0 <= maint._interval() <= 120.0

    def test_tick_swallows_database_errors(self, store, monkeypatch):
        maint = StoreMaintenance(store, self._config())

        def boom(*a, **kw):
            raise sqlite3.OperationalError("disk on fire")

        monkeypatch.setattr(store, "checkpoint", boom)
        result = maint.tick()  # must not raise
        assert "checkpoint" not in result
        assert maint.snapshot()["errors"] == 1

    def test_maybe_tick_is_interval_gated(self, store):
        clock = [0.0]
        maint = StoreMaintenance(
            store, self._config(checkpoint_interval=10.0), clock=lambda: clock[0]
        )
        assert maint.maybe_tick() is not None  # first call always ticks
        assert maint.maybe_tick() is None      # gated: no time elapsed
        clock[0] += 11.0
        assert maint.maybe_tick() is not None
        assert maint.snapshot()["ticks"] == 2

    def test_disabled_interval_never_ticks(self, store):
        maint = StoreMaintenance(store, self._config(checkpoint_interval=0.0))
        assert maint.maybe_tick() is None
        maint.start()
        assert not maint.running

    def test_start_stop_lifecycle(self, store, monkeypatch):
        monkeypatch.setattr(lifecycle, "JITTER", 0.0)
        maint = StoreMaintenance(store, self._config(checkpoint_interval=0.01))
        maint.start()
        assert maint.running
        deadline = time.time() + 5.0
        while maint.snapshot()["ticks"] < 2 and time.time() < deadline:
            time.sleep(0.01)
        maint.stop()
        assert not maint.running
        snap = maint.snapshot()
        assert snap["ticks"] >= 2
        assert snap["checkpoints"] >= 1

    def test_stop_runs_a_final_tick(self, store):
        maint = StoreMaintenance(store, self._config())
        for i in range(10):
            blob, digest = _seal({"i": i})
            store.cache_put("public", f"k{i}", blob, digest)
        assert store.wal_size() > 0
        maint.stop(final_tick=True)
        assert store.wal_size() == 0

