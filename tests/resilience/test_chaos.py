"""Chaos integration: the fleet engine under a deterministic fault plan.

Every test arms a seeded :class:`FaultPlan` and asserts the engine
degrades the way the resilience plane promises: structured results for
every job, quarantine instead of retry loops, fault-free-identical
answers for every job that succeeds, corruption counted as misses —
and, with no plan armed, byte-identical behaviour to the
pre-resilience engine.
"""

from repro.circuit.measurements import Measurement
from repro.fuzzy import FuzzyInterval
from repro.resilience import FaultPlan, FaultRule, FleetSupervisor, faults, supervisor
from repro.service.jobs import DiagnosisJob
from repro.service.pool import FleetEngine

NETLIST = (
    ".title divider\n"
    "Vin top 0 12\n"
    "Rtop top mid 10k tol=0.05\n"
    "Rbot mid 0 10k tol=0.05\n"
)


def _job(unit, volts=7.5, sanitize="strict", points=("mid",)):
    return DiagnosisJob.build(
        unit,
        NETLIST,
        [
            Measurement(f"V({p})", FuzzyInterval.number(v, 0.02))
            for p, v in zip(points, (volts, 12.0))
        ],
        sanitize=sanitize,
    )


class TestWorkerCrash:
    def test_crash_yields_structured_error_without_supervisor(self):
        engine = FleetEngine(
            workers=1,
            executor="serial",
            retries=2,
            fault_plan=FaultPlan.build(seed=0, pool_worker_crash=1.0),
        )
        res = engine.run_batch([_job("u1")]).results[0]
        assert res.status == "error"
        assert "injected fault at pool.worker_crash" in res.error
        assert res.attempts == 3  # the full retry budget was spent
        assert engine.telemetry.counter("retries") == 2

    def test_supervisor_quarantines_inside_the_retry_loop(self, monkeypatch):
        monkeypatch.setattr(supervisor, "QUARANTINE_AFTER", 2)
        sup = FleetSupervisor()
        engine = FleetEngine(
            workers=1,
            executor="serial",
            retries=5,
            supervisor=sup,
            fault_plan=FaultPlan.build(seed=0, pool_worker_crash=1.0),
        )
        res = engine.run_batch([_job("u1")]).results[0]
        assert res.status == "quarantined"
        # Quarantine interrupts the retry budget: 2 attempts, not 6.
        assert res.attempts == 2
        assert engine.telemetry.counter("retries") == 1
        assert engine.telemetry.counter("jobs_quarantined_total") == 1

    def test_quarantined_job_never_reenters_the_pool(self, monkeypatch):
        monkeypatch.setattr(supervisor, "QUARANTINE_AFTER", 1)
        sup = FleetSupervisor()
        engine = FleetEngine(
            workers=1,
            executor="serial",
            retries=3,
            supervisor=sup,
            fault_plan=FaultPlan.build(seed=0, pool_worker_crash=1.0),
        )
        first = engine.run_batch([_job("u1")]).results[0]
        assert first.status == "quarantined" and first.attempts == 1
        executed_before = engine.telemetry.counter("retries")
        second = engine.run_batch([_job("u1")]).results[0]
        assert second.status == "quarantined"
        assert second.attempts == 0  # answered from quarantine, never executed
        assert engine.telemetry.counter("retries") == executed_before
        # run_job takes the same short-circuit.
        third = engine.run_job(_job("u1"))
        assert third.status == "quarantined" and third.attempts == 0

    def test_health_eviction_restarts_a_sick_pool(self, monkeypatch):
        monkeypatch.setattr(supervisor, "QUARANTINE_AFTER", 100)
        sup = FleetSupervisor()
        engine = FleetEngine(
            workers=2,
            executor="thread",
            retries=0,
            supervisor=sup,
            fault_plan=FaultPlan.build(seed=0, pool_worker_crash=1.0),
        )
        engine.run_batch([_job(f"u{i}", 5.0 + i * 0.1) for i in range(8)])
        assert engine.telemetry.counter("pool_restarts") >= 1
        assert engine.telemetry.counter("worker_evictions") >= 1
        assert sup.snapshot()["health"] == 1.0  # reset optimistically after the restart


class TestWorkerExit:
    def test_dead_worker_process_revives_the_pool(self):
        # os._exit fires only inside spawned worker processes; the pool
        # breaks, the engine revives it and the job resolves structurally.
        engine = FleetEngine(
            workers=1,
            executor="process",
            retries=1,
            fault_plan=FaultPlan.build(seed=0, pool_worker_exit=1.0),
        )
        res = engine.run_batch([_job("u1")]).results[0]
        assert res.status == "error"
        assert engine.telemetry.counter("pool_restarts") >= 1


class TestMalformedMeasurements:
    def _plan(self):
        return FaultPlan.build(seed=0, measurement_malformed=1.0)

    def test_strict_job_errors(self):
        engine = FleetEngine(
            workers=1, executor="serial", retries=0, fault_plan=self._plan(),
        )
        res = engine.run_batch([_job("u1")]).results[0]
        assert res.status == "error"

    def test_repair_job_degrades_and_flags_the_report(self):
        engine = FleetEngine(
            workers=1, executor="serial", fault_plan=self._plan(),
        )
        job = _job("u1", sanitize="repair", points=("mid", "top"))
        res = engine.run_batch([job]).results[0]
        assert res.status == "degraded"
        assert res.completed
        assert res.diagnosis["degraded"]["dropped"] == ["V(mid)"]
        assert res.diagnosis["status"] in ("consistent", "faulty")

    def test_degraded_results_are_cached(self):
        engine = FleetEngine(
            workers=1, executor="serial", fault_plan=self._plan(),
        )
        job = _job("u1", sanitize="repair", points=("mid", "top"))
        engine.run_batch([job])
        res = engine.run_batch([job]).results[0]
        assert res.status == "degraded"
        assert res.cache_hit

    def test_repair_with_nothing_left_is_an_error(self):
        engine = FleetEngine(
            workers=1, executor="serial", retries=0, fault_plan=self._plan(),
        )
        res = engine.run_batch([_job("u1", sanitize="repair")]).results[0]
        assert res.status == "error"
        assert "dropped every measurement" in res.error


class TestCacheCorruption:
    def test_corrupt_hit_recomputes(self):
        plan = FaultPlan(seed=0, rules=(FaultRule("cache.corrupt", rate=1.0),))
        engine = FleetEngine(workers=1, executor="serial", fault_plan=plan)
        job = _job("u1")
        first = engine.run_batch([job]).results[0]
        second = engine.run_batch([job]).results[0]
        assert first.status == second.status == "ok"
        assert not second.cache_hit  # the poisoned entry was never served
        assert first.diagnosis == second.diagnosis
        assert engine.cache.snapshot()["corruptions"] >= 1


class TestFaultFreeParity:
    def test_resilience_machinery_is_byte_identical_when_disarmed(self):
        jobs = [_job(f"u{i}", 5.0 + i * 0.25) for i in range(6)]
        plain = FleetEngine(workers=1, executor="serial")
        armed = FleetEngine(
            workers=1, executor="serial", supervisor=FleetSupervisor(),
        )
        a = plain.run_batch(jobs)
        b = armed.run_batch(jobs)
        for x, y in zip(a.results, b.results):
            assert x.status == y.status == "ok"
            assert x.diagnosis == y.diagnosis
            assert x.content_hash == y.content_hash


class TestChaosAcceptance:
    """The PR's acceptance run: 200 jobs, every injection armed, seed 0."""

    STRUCTURED = {"ok", "degraded", "quarantined", "timeout", "interrupted"}

    def _fleet(self, n=200):
        # Distinct content per unit (no dedup) with two probes each, so a
        # dropped reading degrades the run instead of emptying it.
        return [
            _job(
                f"unit-{i:03d}",
                5.0 + (i % 40) * 0.05 + i * 1e-4,
                sanitize="repair",
                points=("mid", "top"),
            )
            for i in range(n)
        ]

    def _plan(self):
        return FaultPlan(
            seed=0,
            rules=(
                FaultRule("pool.worker_crash", rate=0.06),
                FaultRule("pool.worker_exit", rate=0.02),  # no-op in threads
                FaultRule("pool.worker_hang", rate=0.008, seconds=2.0),
                FaultRule("pool.slow_response", rate=0.05, seconds=0.02),
                FaultRule("cache.corrupt", rate=0.3),
                FaultRule("measurement.malformed", rate=0.08),
            ),
        )

    def test_200_jobs_all_structured_and_reference_identical(self):
        jobs = self._fleet()
        sup = FleetSupervisor()
        engine = FleetEngine(
            workers=4,
            executor="thread",
            timeout=0.5,
            retries=2,
            cache_size=512,
            supervisor=sup,
            fault_plan=self._plan(),
        )
        report = engine.run_batch(jobs)

        # 1. Every job answered, in order, with a structured status.
        assert len(report.results) == len(jobs)
        assert [r.unit for r in report.results] == [j.unit for j in jobs]
        statuses = {r.status for r in report.results}
        assert statuses <= self.STRUCTURED, statuses
        assert "error" not in statuses  # persistent failures quarantine instead
        for r in report.results:
            if not r.completed:
                assert r.error  # failures carry a reason

        # 2. The chaos actually happened.
        tel = report.telemetry["counters"]
        assert tel.get("jobs_quarantined_total", 0) >= 1
        counts = faults.fire_counts()
        assert counts.get("pool.worker_crash", 0) >= 1
        assert counts.get("measurement.malformed", 0) >= 1

        # 3. Every ok result matches the fault-free engine bit for bit
        #    (golden parity).
        clean = FleetEngine(workers=4, executor="thread", cache_size=512)
        faults.uninstall_plan()  # the clean engine runs genuinely clean
        reference = clean.run_batch(jobs)
        for chaotic, ref in zip(report.results, reference.results):
            assert ref.status == "ok"
            if chaotic.status == "ok":
                assert chaotic.diagnosis == ref.diagnosis, chaotic.unit

        # 4. A warm second pass stays structured and exercises the
        #    corrupt-entry path (counted misses, never crashes).
        faults.install_plan(self._plan())
        second = engine.run_batch(jobs)
        assert {r.status for r in second.results} <= self.STRUCTURED
        assert engine.cache.snapshot()["corruptions"] >= 1
