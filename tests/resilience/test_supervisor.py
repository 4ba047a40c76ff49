"""Supervisor state machines, plus cache-corruption handling."""

from repro.resilience import FleetSupervisor, supervisor
from repro.service.cache import ResultCache
from repro.service.jobs import JobResult
from repro.service.telemetry import Telemetry


class TestQuarantine:
    def test_quarantines_after_k_failures(self):
        sup = FleetSupervisor()
        sup.telemetry = Telemetry()
        assert sup.record_failure("job-a", "boom") is False
        assert sup.record_failure("job-a", "boom") is False
        assert sup.record_failure("job-a", "boom") is True
        assert sup.is_quarantined("job-a")
        assert "3 failures" in sup.quarantine_reason("job-a")
        assert "boom" in sup.quarantine_reason("job-a")
        assert sup.telemetry.counter("jobs_quarantined_total") == 1

    def test_counts_are_cumulative_across_batches(self):
        sup = FleetSupervisor()
        sup.record_failure("job-a")  # batch 1
        sup.record_failure("job-a")  # batch 2
        assert not sup.is_quarantined("job-a")
        assert sup.record_failure("job-a") is True  # batch 3

    def test_success_forgives_the_streak(self, monkeypatch):
        monkeypatch.setattr(supervisor, "QUARANTINE_AFTER", 2)
        sup = FleetSupervisor()
        sup.record_failure("job-a")
        sup.record_job_success("job-a")
        assert sup.record_failure("job-a") is False

    def test_already_quarantined_stays_quarantined(self, monkeypatch):
        monkeypatch.setattr(supervisor, "QUARANTINE_AFTER", 1)
        sup = FleetSupervisor()
        assert sup.record_failure("job-a", "first") is True
        assert sup.record_failure("job-a", "second") is True
        assert "first" in sup.quarantine_reason("job-a")
        assert "second" not in sup.quarantine_reason("job-a")


class TestWorkerHealth:
    def test_health_decays_on_failures_and_recovers(self):
        sup = FleetSupervisor()
        assert sup.snapshot()["health"] == 1.0
        for _ in range(4):
            sup.record_worker_outcome(False)
        assert sup.should_evict()
        sup.record_eviction()
        assert sup.snapshot()["health"] == 1.0
        assert sup.evictions == 1
        assert not sup.should_evict()

    def test_healthy_stream_never_evicts(self):
        sup = FleetSupervisor()
        for _ in range(100):
            sup.record_worker_outcome(True)
        assert not sup.should_evict()

    def test_eviction_recorded_in_telemetry(self):
        tel = Telemetry()
        sup = FleetSupervisor()
        sup.telemetry = tel
        sup.record_eviction()
        assert tel.counter("worker_evictions") == 1
        assert any(e["kind"] == "worker_evicted" for e in tel.snapshot()["events"])

    def test_snapshot_shape(self):
        snap = FleetSupervisor().snapshot()
        assert set(snap) == {"health", "evictions", "quarantined"}


def _tamper(cache, key):
    """Flip the last byte of ``key``'s sealed blob in the memory tier."""
    entry = cache._entries[key]
    entry[1] = entry[1][:-1] + ("x" if entry[1][-1:] != "x" else "y")


class TestCacheIntegrity:
    def _result(self, key="h" * 64):
        return JobResult(
            unit="u", content_hash=key, status="ok", diagnosis={"status": "faulty"}
        )

    def test_tampered_entry_is_counted_miss_not_crash(self):
        cache = ResultCache(capacity=8)
        cache.put("k1", self._result())
        _tamper(cache, "k1")
        assert cache.get("k1") is None  # purged, not served, not raised
        snap = cache.snapshot()
        assert snap["corruptions"] == 1
        assert snap["misses"] == 1
        assert snap["hits"] == 0
        assert snap["size"] == 0

    def test_refill_after_corruption_serves_again(self):
        cache = ResultCache(capacity=8)
        cache.put("k1", self._result())
        _tamper(cache, "k1")
        assert cache.get("k1") is None
        cache.put("k1", self._result())
        assert cache.get("k1") is not None
        assert cache.snapshot()["corruptions"] == 1

    def test_intact_entries_unaffected(self):
        cache = ResultCache(capacity=8)
        cache.put("k1", self._result())
        cache.put("k2", self._result())
        _tamper(cache, "k1")
        assert cache.get("k2") is not None
        assert cache.snapshot()["corruptions"] == 0  # k1 not read yet
