"""Tests for the structured telemetry collector."""

import json
import threading

import pytest

from repro.service import telemetry
from repro.service.telemetry import Telemetry


class TestCounters:
    def test_incr_accumulates(self):
        tel = Telemetry()
        tel.incr("jobs")
        tel.incr("jobs", 3)
        assert tel.counter("jobs") == 4

    def test_missing_counter_is_zero(self):
        assert Telemetry().counter("nope") == 0

    def test_thread_safety(self):
        tel = Telemetry()

        def bump():
            for _ in range(1000):
                tel.incr("n")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tel.counter("n") == 4000


class TestObservations:
    def test_summary_stats(self):
        tel = Telemetry()
        for v in (1.0, 2.0, 3.0):
            tel.observe("latency", v)
        obs = tel.snapshot()["observations"]["latency"]
        assert obs["count"] == 3
        assert obs["mean"] == pytest.approx(2.0)
        assert obs["min"] == 1.0
        assert obs["max"] == 3.0


class TestPhases:
    def test_phase_accumulates_wall_clock(self):
        tel = Telemetry()
        with tel.phase("work"):
            pass
        with tel.phase("work"):
            pass
        phase = tel.snapshot()["phases"]["work"]
        assert phase["entries"] == 2
        assert phase["seconds"] >= 0.0

    def test_phase_records_even_on_exception(self):
        tel = Telemetry()
        with pytest.raises(RuntimeError):
            with tel.phase("doomed"):
                raise RuntimeError("boom")
        assert tel.snapshot()["phases"]["doomed"]["entries"] == 1


class TestEventsAndSnapshot:
    def test_events_bounded(self, monkeypatch):
        monkeypatch.setattr(telemetry, "MAX_EVENTS", 3)
        tel = Telemetry()
        for i in range(5):
            tel.event("tick", index=i)
        events = tel.snapshot()["events"]
        assert len(events) == 3
        assert events[0]["index"] == 2

    def test_snapshot_is_json_safe(self):
        tel = Telemetry()
        tel.incr("jobs")
        tel.observe("latency", 0.5)
        with tel.phase("work"):
            pass
        tel.event("done", unit="u1")
        json.dumps(tel.snapshot())

    def test_summary_mentions_everything(self):
        tel = Telemetry()
        tel.incr("jobs_ok", 2)
        tel.observe("job_seconds", 0.25)
        with tel.phase("execute"):
            pass
        text = tel.summary(title="fleet telemetry")
        assert "fleet telemetry" in text
        assert "jobs_ok: 2" in text
        assert "execute" in text
        assert "job_seconds" in text

    def test_empty_summary(self):
        assert "(empty)" in Telemetry().summary()


class TestPercentiles:
    def test_percentile_function(self):
        from repro.service.telemetry import percentile

        values = sorted(float(v) for v in range(1, 101))
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.95) == 95.0
        assert percentile(values, 0.99) == 99.0
        assert percentile([7.0], 0.99) == 7.0
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_snapshot_reports_percentiles(self):
        tel = Telemetry()
        for v in range(1, 101):
            tel.observe("latency", float(v))
        obs = tel.snapshot()["observations"]["latency"]
        assert obs["p50"] == pytest.approx(50.0)
        assert obs["p95"] == pytest.approx(95.0)
        assert obs["p99"] == pytest.approx(99.0)
        json.dumps(tel.snapshot())

    def test_reservoir_bounds_memory_but_keeps_exact_extremes(self, monkeypatch):
        monkeypatch.setattr(telemetry, "RESERVOIR", 10)
        tel = Telemetry()
        for v in range(1, 1001):
            tel.observe("latency", float(v))
        obs = tel.snapshot()["observations"]["latency"]
        assert obs["count"] == 1000
        assert obs["min"] == 1.0 and obs["max"] == 1000.0
        # percentiles come from the last 10 samples only
        assert obs["p50"] >= 991.0

    def test_summary_mentions_percentiles(self):
        tel = Telemetry()
        for v in (0.1, 0.2, 0.3):
            tel.observe("job_seconds", v)
        assert "p95=" in tel.summary()


class TestGauges:
    def test_gauge_overwrites(self):
        tel = Telemetry()
        tel.gauge("streams_active", 3.0)
        tel.gauge("streams_active", 1.0)
        assert tel.snapshot()["gauges"] == {"streams_active": 1.0}

    def test_snapshot_carries_gauges(self):
        tel = Telemetry()
        tel.gauge("chain_length", 7.0)
        snap = tel.snapshot()
        assert snap["gauges"] == {"chain_length": 7.0}
        json.dumps(snap)

    def test_merge_sums_gauges_across_sources(self):
        # Each source reports its *current* value; the fleet-wide current
        # value is their sum (e.g. active streams per replica).
        a, b = Telemetry(), Telemetry()
        a.gauge("streams_active", 2.0)
        b.gauge("streams_active", 1.0)
        b.gauge("chain_length", 5.0)
        merged = Telemetry.merge([a.snapshot(), b.snapshot()])
        assert merged["gauges"] == {"streams_active": 3.0, "chain_length": 5.0}

    def test_merge_tolerates_sources_without_gauges(self):
        old_style = {"counters": {"jobs": 1}}  # pre-gauge snapshot shape
        tel = Telemetry()
        tel.gauge("streams_active", 1.0)
        merged = Telemetry.merge([old_style, tel.snapshot()])
        assert merged["gauges"] == {"streams_active": 1.0}

    def test_summary_renders_gauges(self):
        tel = Telemetry()
        tel.gauge("streams_active", 2.0)
        text = tel.summary()
        assert "gauges" in text
        assert "streams_active" in text
