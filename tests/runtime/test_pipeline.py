"""The staged pipeline: stage spans, interruption contract, threading.

The byte-identity of the unbounded pipeline with the pre-staged engine
is pinned elsewhere (tests/golden); here we check the *new* behaviour:
span trees name every stage, deadlines and budgets interrupt without
breaking result shape, and the context threads through sessions,
planners and the fleet service.
"""

import pytest

from repro.circuit.faults import Fault, FaultKind, apply_fault
from repro.circuit.generators import resistor_ladder
from repro.circuit.library import three_stage_amplifier
from repro.circuit.measurements import probe_all
from repro.circuit.simulate import DCSolver
from repro.core.diagnosis import Flames
from repro.runtime import STAGES, RunContext, diagnose


def _amp_measurements():
    golden = three_stage_amplifier()
    faulty = apply_fault(golden, Fault(FaultKind.SHORT, "R2"))
    op = DCSolver(faulty).solve()
    return golden, probe_all(op, ["vs", "v2", "v1"], imprecision=0.02)


def _ladder_measurements(rungs=16, probes=8):
    golden = resistor_ladder(rungs)
    faulty = apply_fault(golden, Fault(FaultKind.OPEN, "Rp3"))
    op = DCSolver(faulty).solve()
    nets = [n for n in sorted(op.voltages) if n != "0"][:probes]
    return golden, probe_all(op, nets, imprecision=0.02)


class TestStages:
    def test_every_stage_appears_in_the_trace(self):
        golden, measurements = _amp_measurements()
        ctx = RunContext(tracing=True)
        result = Flames(golden).diagnose(measurements, ctx=ctx)
        assert not result.interrupted
        assert result.trace is not None
        (root,) = result.trace["spans"]
        assert root["name"] == "diagnose"
        assert root["meta"]["circuit"] == golden.name
        assert [child["name"] for child in root["children"]] == list(STAGES)

    def test_propagate_span_carries_step_count(self):
        golden, measurements = _amp_measurements()
        ctx = RunContext(tracing=True)
        result = Flames(golden).diagnose(measurements, ctx=ctx)
        (root,) = result.trace["spans"]
        propagate = next(c for c in root["children"] if c["name"] == "propagate")
        assert propagate["meta"]["steps"] == result.propagation.steps
        assert propagate["meta"]["quiescent"] is True

    def test_propagate_span_carries_work_counts(self):
        golden, measurements = _amp_measurements()

        def counts():
            ctx = RunContext(tracing=True)
            result = Flames(golden).diagnose(measurements, ctx=ctx)
            (root,) = result.trace["spans"]
            meta = next(c for c in root["children"] if c["name"] == "propagate")["meta"]
            return result, {k: v for k, v in meta.items() if k not in ("steps", "quiescent")}

        result, first = counts()
        assert set(first) == {
            "projections", "seen", "subsumed", "merged", "appended", "dropped", "conflicts",
        }
        assert all(isinstance(v, int) and v >= 0 for v in first.values())
        outcomes = sum(first[k] for k in ("seen", "subsumed", "merged", "appended", "dropped"))
        # Every recorded value in the run comes from one projection.
        assert 0 < outcomes <= first["projections"]
        assert first["conflicts"] <= len(result.conflicts)
        assert counts()[1] == first  # deterministic

    def test_nogoods_span_carries_fold_counts(self):
        golden, measurements = _amp_measurements()

        def counts():
            ctx = RunContext(tracing=True)
            result = Flames(golden).diagnose(measurements, ctx=ctx)
            (root,) = result.trace["spans"]
            return result, next(c for c in root["children"] if c["name"] == "nogoods")["meta"]

        result, first = counts()
        assert set(first) == {"conflicts", "kept", "nogoods"}
        assert first["conflicts"] == len(result.conflicts)
        assert first["nogoods"] == len(result.nogoods)
        # The fold keeps a subset of the log, and every nogood comes from
        # a kept conflict.
        assert 0 < first["nogoods"] <= first["kept"] <= first["conflicts"]
        assert counts()[1] == first  # deterministic

    def test_no_context_means_no_trace(self):
        golden, measurements = _amp_measurements()
        result = Flames(golden).diagnose(measurements)
        assert result.trace is None
        assert result.interrupted is False

    def test_pipeline_direct_call_matches_engine(self):
        golden, measurements = _amp_measurements()
        engine = Flames(golden)
        via_engine = engine.diagnose(measurements)
        via_pipeline = diagnose(engine, measurements)
        assert via_engine.suspicions == via_pipeline.suspicions
        assert via_engine.propagation.steps == via_pipeline.propagation.steps

    def test_unknown_probe_still_raises_key_error(self):
        golden, measurements = _amp_measurements()
        from repro.circuit.measurements import Measurement
        from repro.fuzzy import FuzzyInterval

        bad = Measurement("V(nope)", FuzzyInterval.number(1.0, 0.02))
        with pytest.raises(KeyError):
            Flames(golden).diagnose([bad], ctx=RunContext())


class TestConflictLog:
    def test_data_conflict_listed_once(self):
        # Two readings of one net that disagree: the empty-environment
        # (data) conflict is in the propagator's log exactly once, and
        # the result lists the log, not the log plus a second copy.
        from repro.circuit.measurements import Measurement
        from repro.fuzzy import FuzzyInterval
        from repro.service.jobs import diagnosis_to_dict

        engine = Flames(three_stage_amplifier())
        result = engine.diagnose(
            [
                Measurement("V(n1)", FuzzyInterval.number(2.0, 0.01)),
                Measurement("V(n1)", FuzzyInterval.number(4.0, 0.01)),
            ]
        )
        data = [c for c in result.conflicts if not c.environment]
        assert len(data) == 1
        assert data[0].variable == "V(n1)"
        assert len({id(c) for c in result.conflicts}) == len(result.conflicts)
        stats = diagnosis_to_dict(result)["stats"]
        assert stats["conflicts"] == len(result.conflicts)
        # A data conflict implicates no component: no empty nogood.
        assert all(n.environment for n in result.nogoods)


class TestInterruption:
    def test_partial_result_is_well_formed(self):
        golden, measurements = _ladder_measurements()
        full = Flames(golden).diagnose(measurements)
        budget = full.propagation.steps // 2
        ctx = RunContext(step_budget=budget, tracing=True)
        result = Flames(golden).diagnose(measurements, ctx=ctx)
        assert result.interrupted
        assert result.trace["interrupted"] is True
        assert result.trace["stop_reason"] == "step-budget"
        # Every downstream stage still ran: the result ranks and serialises.
        assert isinstance(result.ranked_components(), list)
        assert result.propagation is not None
        from repro.service.jobs import diagnosis_to_dict

        payload = diagnosis_to_dict(result)
        assert payload["stats"]["interrupted"] is True
        assert payload["stats"]["quiescent"] is False

    def test_uninterrupted_payload_has_no_interrupted_key(self):
        golden, measurements = _amp_measurements()
        from repro.service.jobs import diagnosis_to_dict

        payload = diagnosis_to_dict(Flames(golden).diagnose(measurements))
        assert "interrupted" not in payload["stats"]

    def test_cancelled_before_start_still_returns(self):
        golden, measurements = _amp_measurements()
        ctx = RunContext()
        ctx.cancel()
        result = Flames(golden).diagnose(measurements, ctx=ctx)
        assert result.interrupted
        assert ctx.stop_reason == "cancelled"
        assert result.propagation.steps == 0


class TestServiceThreading:
    def test_fleet_engine_interrupts_and_does_not_cache(self):
        from repro.service import FleetEngine
        from repro.service.jobs import DiagnosisJob

        golden, measurements = _ladder_measurements()
        job = DiagnosisJob.build("unit-1", golden, measurements)
        full_steps = Flames(golden).diagnose(measurements).propagation.steps

        engine = FleetEngine(workers=1, executor="serial")
        # A supplied context governs the run entirely: budget AND tracing.
        ctx = RunContext(step_budget=full_steps // 2, tracing=True)
        result = engine.run_job(job, ctx=ctx)
        assert result.status == "interrupted"
        assert "interrupted" in result.error
        assert result.diagnosis["stats"]["interrupted"] is True
        assert result.trace
        # Partial results never warm the cache: a rerun recomputes fully.
        clean = engine.run_job(job)
        assert clean.status == "ok"
        assert not clean.cache_hit
        assert engine.telemetry.counter("jobs_interrupted") == 1

    def test_batch_tracing_folds_engine_phases_into_telemetry(self):
        from repro.service import FleetEngine
        from repro.service.jobs import DiagnosisJob

        golden, measurements = _amp_measurements()
        job = DiagnosisJob.build("unit-1", golden, measurements)
        engine = FleetEngine(workers=1, executor="serial", tracing=True)
        report = engine.run_batch([job])
        assert report.results[0].status == "ok"
        assert report.results[0].trace
        phases = report.telemetry["phases"]
        assert "engine.diagnose" in phases
        assert "engine.diagnose.propagate" in phases

    def test_in_band_timeout_interrupts_pooled_worker(self):
        from repro.service import FleetEngine
        from repro.service.jobs import DiagnosisJob

        golden, measurements = _ladder_measurements(rungs=24, probes=10)
        job = DiagnosisJob.build("unit-slow", golden, measurements)
        # A deadline far shorter than the ladder's propagation time: the
        # worker thread observes it in-band and winds down on its own.
        engine = FleetEngine(workers=1, executor="thread", timeout=0.005)
        report = engine.run_batch([job])
        result = report.results[0]
        assert result.status == "interrupted"
        assert result.diagnosis["stats"]["interrupted"] is True
        # Not retried (partial, not failed) and not cached.
        assert result.attempts == 1
        assert engine.cache.get(job.content_hash) is None
