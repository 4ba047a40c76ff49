"""Tests for the fleet engine: parallel batches, caching, degradation."""

import time
from dataclasses import replace

import pytest

from repro.circuit.measurements import Measurement
from repro.fuzzy import FuzzyInterval
from repro.service.jobs import DiagnosisJob
from repro.service.pool import FleetEngine, execute_job

NETLIST = (
    ".title divider\n"
    "Vin top 0 12\n"
    "Rtop top mid 10k tol=0.05\n"
    "Rbot mid 0 10k tol=0.05\n"
)

BROKEN_NETLIST = "Rbroken top 0\n"


def _job(unit, volts=6.0, confirm=None, netlist=NETLIST):
    job = DiagnosisJob.build(
        unit, netlist, [Measurement("V(mid)", FuzzyInterval.number(volts, 0.02))]
    )
    return replace(job, confirm=confirm)


def _fleet(n_healthy=8, n_faulty=8):
    """A fleet with heavy duplication, like a real repair queue."""
    jobs = [_job(f"healthy-{i}", 6.0) for i in range(n_healthy)]
    jobs += [_job(f"faulty-{i}", 7.5) for i in range(n_faulty)]
    return jobs


class TestExecuteJob:
    def test_ok_payload(self):
        payload = execute_job(_job("u", 7.5))
        assert payload["status"] == "ok"
        assert payload["diagnosis"]["status"] == "faulty"
        assert payload["elapsed"] > 0

    def test_crash_payload(self):
        payload = execute_job(_job("u", netlist=BROKEN_NETLIST))
        assert payload["status"] == "error"
        assert "NetlistError" in payload["error"]

    def test_content_hash_unused_without_a_fault_plan(self, monkeypatch):
        """Only an armed fault plan needs the job hashed for its injection key."""
        from repro.resilience import faults

        faults.uninstall_plan()

        def refuse(job):
            raise AssertionError("content_hash evaluated with no fault plan armed")

        monkeypatch.setattr(DiagnosisJob, "content_hash", property(refuse))
        try:
            payload = execute_job(_job("u", 7.5))
        finally:
            faults.uninstall_plan()
        assert payload["status"] == "ok", payload.get("error")


class TestBatch:
    def test_results_in_job_order(self):
        engine = FleetEngine(workers=2, executor="thread")
        jobs = _fleet(3, 3)
        report = engine.run_batch(jobs)
        assert [r.unit for r in report.results] == [j.unit for j in jobs]
        assert all(r.ok for r in report.results)

    def test_duplicates_deduplicated_within_batch(self):
        engine = FleetEngine(workers=2, executor="thread")
        report = engine.run_batch(_fleet(8, 8))
        # 16 jobs but only 2 distinct contents: 2 leaders ran, 14 replayed.
        assert report.cache_hits == 14
        assert engine.cache.hits == 14
        assert engine.telemetry.counter("jobs_ok") == 16
        assert engine.telemetry.counter("propagation_passes") == 2

    def test_warm_second_pass_hits_cache(self):
        engine = FleetEngine(workers=2, executor="thread")
        jobs = _fleet(4, 4)
        engine.run_batch(jobs)
        hits_before = engine.cache.hits
        report = engine.run_batch(jobs)
        assert all(r.cache_hit for r in report.results)
        assert engine.cache.hits == hits_before + len(jobs)
        assert engine.telemetry.counter("cache_hits") == engine.cache.hits

    def test_crashing_job_is_isolated(self):
        engine = FleetEngine(workers=2, executor="thread", retries=1)
        jobs = _fleet(4, 4) + [_job("crasher", netlist=BROKEN_NETLIST)]
        report = engine.run_batch(jobs)
        by_unit = {r.unit: r for r in report.results}
        crash = by_unit["crasher"]
        assert crash.status == "error"
        assert "NetlistError" in crash.error
        assert crash.attempts == 2  # one retry granted, then surfaced
        assert engine.telemetry.counter("retries") == 1
        others = [r for r in report.results if r.unit != "crasher"]
        assert all(r.ok for r in others)
        assert report.failed == [crash]

    def test_error_results_not_cached(self):
        engine = FleetEngine(workers=1, executor="serial", retries=0)
        job = _job("crasher", netlist=BROKEN_NETLIST)
        engine.run_batch([job])
        assert len(engine.cache) == 0
        report = engine.run_batch([job])
        assert report.results[0].status == "error"
        assert not report.results[0].cache_hit

    def test_serial_executor(self):
        engine = FleetEngine(workers=1, executor="serial")
        report = engine.run_batch(_fleet(2, 2))
        assert all(r.ok for r in report.results)

    def test_process_executor_round_trip(self):
        engine = FleetEngine(workers=2, executor="process")
        report = engine.run_batch(_fleet(2, 2))
        assert all(r.ok for r in report.results)
        assert report.cache_hits == 2

    def test_empty_batch(self):
        engine = FleetEngine(workers=2, executor="thread")
        report = engine.run_batch([])
        assert report.results == []

    def test_report_dict_is_json_safe(self):
        import json

        engine = FleetEngine(workers=1, executor="serial")
        report = engine.run_batch(_fleet(1, 1))
        json.dumps(report.to_dict())

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FleetEngine(workers=0)
        with pytest.raises(ValueError):
            FleetEngine(executor="rocket")
        with pytest.raises(ValueError):
            FleetEngine(retries=-1)


class TestTimeout:
    def test_hung_job_yields_structured_timeout(self, monkeypatch):
        # A worker hung *outside* the cooperative loop (it never checks
        # its RunContext) — the pool-side hard backstop must still fire.
        def sleepy(job, *args, **kwargs):
            time.sleep(5.0)
            return {"status": "ok", "diagnosis": {}, "elapsed": 5.0}

        import repro.service.pool as pool_mod

        monkeypatch.setattr(pool_mod, "execute_job", sleepy)
        engine = FleetEngine(workers=2, executor="thread", timeout=0.2, retries=2)
        report = engine.run_batch([_job("hung", 7.5)])
        res = report.results[0]
        assert res.status == "timeout"
        assert "budget" in res.error
        # timeouts are surfaced immediately, not retried
        assert engine.telemetry.counter("retries") == 0


class TestExperienceMerge:
    def test_confirmed_repairs_reach_shared_base(self):
        engine = FleetEngine(workers=2, executor="thread")
        jobs = [
            _job(f"shop-a-{i}", 7.5, confirm=("Rbot", "high")) for i in range(3)
        ]
        report = engine.run_batch(jobs)
        assert report.rules_learned == 1
        assert len(engine.experience) == 1
        rule = engine.experience.rules[0]
        assert rule.component == "Rbot"
        assert rule.occurrences == 3  # all three confirmations reinforce it
        assert engine.experience.episode_count == 3

    def test_merge_accumulates_across_batches(self):
        engine = FleetEngine(workers=1, executor="serial")
        engine.run_batch([_job("a", 7.5, confirm=("Rbot", "high"))])
        certainty_first = engine.experience.rules[0].certainty
        engine.run_batch([_job("b", 7.5, confirm=("Rbot", "high"))])
        assert len(engine.experience) == 1
        assert engine.experience.rules[0].occurrences == 2
        assert engine.experience.rules[0].certainty > certainty_first

    def test_experience_boosts_later_sessions(self):
        """The fleet's merged experience feeds an interactive session."""
        from repro.core.learning import SymptomSignature
        from repro.core.session import TroubleshootingSession

        engine = FleetEngine(workers=1, executor="serial")
        report = engine.run_batch(
            [_job(f"u{i}", 7.5, confirm=("Rbot", "high")) for i in range(3)]
        )
        signature = SymptomSignature.from_list(report.results[0].signature_entries())
        hits = engine.experience.suggest(signature)
        assert hits and hits[0][0].component == "Rbot"

        session = TroubleshootingSession(
            DiagnosisJob.build("x", NETLIST, []).circuit(),
            experience=engine.experience,
        )
        session.observe(Measurement("V(mid)", FuzzyInterval.number(7.5, 0.02)))
        ranked = session.candidates()
        assert ranked[0][0] == "Rbot"
        assert ranked[0][1] > 1.0  # evidence + experience

    def test_unconfirmed_jobs_learn_nothing(self):
        engine = FleetEngine(workers=1, executor="serial")
        engine.run_batch(_fleet(2, 2))
        assert len(engine.experience) == 0
