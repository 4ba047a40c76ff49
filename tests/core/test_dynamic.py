"""Tests for dynamic-mode diagnosis."""

from unittest import mock

import pytest

from repro.circuit import (
    DCSolver,
    Fault,
    FaultKind,
    TransientSolver,
    apply_fault,
    probe_all,
    rc_lowpass,
    step_waveform,
)
from repro.core import DynamicDiagnoser, Flames, dynamic

WAVE = {"Vin": step_waveform(0.0, 5.0)}


@pytest.fixture(scope="module")
def golden():
    return rc_lowpass(2)


@pytest.fixture(scope="module")
def diagnoser(golden):
    d = DynamicDiagnoser(golden, WAVE, dt=5e-5, duration=5e-3)
    d.predictions()
    return d


def measure(circuit):
    return TransientSolver(circuit, waveforms=WAVE, dt=5e-5, initial="dc").run(5e-3)


class TestPredictions:
    def test_envelopes_cover_the_golden_response(self, golden, diagnoser):
        golden_response = measure(golden)
        for (net, t), prediction in diagnoser.predictions().items():
            truth = golden_response.voltage_at(net, t)
            lo, hi = prediction.value.support
            assert lo - 1e-6 <= truth <= hi + 1e-6

    def test_supports_include_reactives(self, diagnoser):
        prediction = diagnoser.predictions()[("m2", 1e-3)]
        assert {"C1", "C2", "R1", "R2"} <= prediction.support

    def test_predictions_cached(self, diagnoser):
        assert diagnoser.predictions() is diagnoser.predictions()

    def test_golden_circuit_not_mutated(self, golden):
        before = [(c.name, getattr(c, "capacitance", None)) for c in golden.components]
        d = DynamicDiagnoser(golden, WAVE, dt=1e-4, duration=2e-3)
        d.predictions()
        after = [(c.name, getattr(c, "capacitance", None)) for c in golden.components]
        assert before == after


class TestDiagnosis:
    def test_healthy_unit_consistent(self, golden, diagnoser):
        result = diagnoser.diagnose(measure(golden))
        assert result.is_consistent
        assert result.suspicions == {}

    def test_open_capacitor_detected(self, golden, diagnoser):
        faulty = apply_fault(
            golden, Fault(FaultKind.PARAM, "C1", "capacitance", 1e-12)
        )
        result = diagnoser.diagnose(measure(faulty))
        assert not result.is_consistent
        assert "C1" in result.suspicions

    def test_static_engine_blind_to_capacitor(self, golden):
        """The contrast that motivates dynamic mode."""
        faulty = apply_fault(
            golden, Fault(FaultKind.PARAM, "C1", "capacitance", 1e-12)
        )
        op = DCSolver(faulty).solve()
        static = Flames(golden).diagnose(
            probe_all(op, ["m1", "m2"], imprecision=0.01)
        )
        assert static.is_consistent

    def test_capacitor_drift_detected(self, golden, diagnoser):
        faulty = apply_fault(
            golden, Fault(FaultKind.PARAM, "C2", "capacitance", 1.8e-6)
        )
        result = diagnoser.diagnose(measure(faulty))
        assert not result.is_consistent
        assert "C2" in result.suspicions

    def test_small_drift_yields_only_weak_conflicts(self, golden, diagnoser):
        """A drift well inside tolerance registers at a *low* degree.

        Fuzzy semantics: membership falls off inside the tolerance band,
        so a 2 % drift is reported — but weakly, far below the degree a
        frank fault earns.  (A crisp engine would report nothing at all.)
        """
        faulty = apply_fault(
            golden, Fault(FaultKind.PARAM, "C2", "capacitance", 1.02e-6)
        )
        result = diagnoser.diagnose(measure(faulty))
        assert all(n.degree < 0.3 for n in result.nogoods)

    def test_tiny_drift_consistent(self, golden, diagnoser):
        faulty = apply_fault(
            golden, Fault(FaultKind.PARAM, "C2", "capacitance", 1.005e-6)
        )
        result = diagnoser.diagnose(measure(faulty))
        assert result.is_consistent

    def test_worst_sample_points_at_deviation(self, golden, diagnoser):
        faulty = apply_fault(
            golden, Fault(FaultKind.PARAM, "C1", "capacitance", 1e-12)
        )
        result = diagnoser.diagnose(measure(faulty))
        worst = min(result.consistencies, key=lambda k: result.consistencies[k].degree)
        assert result.consistencies[worst].degree < 0.5

    def test_net_restriction(self, golden, diagnoser):
        faulty = apply_fault(
            golden, Fault(FaultKind.PARAM, "C1", "capacitance", 1e-12)
        )
        result = diagnoser.diagnose(measure(faulty), nets=["m1"])
        assert all(net == "m1" for net, _ in result.consistencies)

    def test_degrees_valid(self, golden, diagnoser):
        faulty = apply_fault(golden, Fault(FaultKind.OPEN, "R2"))
        result = diagnoser.diagnose(measure(faulty))
        for nogood in result.nogoods:
            assert 0.0 < nogood.degree <= 1.0

    def test_zero_threshold_skips_zero_degree_samples(self, golden, diagnoser):
        """At threshold 0 a corroborating sample is no nogood, as in static mode."""
        faulty = apply_fault(
            golden, Fault(FaultKind.PARAM, "C1", "capacitance", 1e-12)
        )
        with mock.patch.object(dynamic, "CONFLICT_THRESHOLD", 0.0):
            healthy = diagnoser.diagnose(measure(golden))
            result = diagnoser.diagnose(measure(faulty))
        assert all(0.0 < n.degree <= 1.0 for n in healthy.nogoods)
        assert "C1" in result.suspicions
        # Every nogood the default threshold records is kept or subsumed.
        for strict in diagnoser.diagnose(measure(faulty)).nogoods:
            assert any(
                n.degree >= strict.degree and n.environment.is_subset(strict.environment)
                for n in result.nogoods
            )
