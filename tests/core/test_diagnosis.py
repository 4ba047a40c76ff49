"""Tests for the Flames engine facade."""

import pytest

from repro.circuit import (
    Circuit,
    DCSolver,
    Fault,
    FaultKind,
    GROUND,
    Measurement,
    Resistor,
    VoltageSource,
    apply_fault,
    probe,
    probe_all,
    three_stage_amplifier,
)
from repro.core import Flames, FlamesConfig
from repro.fuzzy import FuzzyInterval


def divider():
    ckt = Circuit("div")
    ckt.add(VoltageSource("Vin", 10.0, p="top", n=GROUND))
    ckt.add(Resistor("Rt", 1e3, 0.05, a="top", b="mid"))
    ckt.add(Resistor("Rb", 1e3, 0.05, a="mid", b=GROUND))
    return ckt


@pytest.fixture(scope="module")
def amp_engine():
    return Flames(three_stage_amplifier())


class TestHealthyUnit:
    def test_consistent_measurements_no_candidates(self):
        golden = divider()
        engine = Flames(golden)
        op = DCSolver(golden).solve()
        result = engine.diagnose([probe(op, "mid", imprecision=0.02)])
        assert result.is_consistent
        assert result.diagnoses == []
        assert result.suspicions == {}

    def test_consistency_table_reports_one(self):
        golden = divider()
        engine = Flames(golden)
        op = DCSolver(golden).solve()
        result = engine.diagnose([probe(op, "mid", imprecision=0.02)])
        assert result.consistencies["V(mid)"].degree == pytest.approx(1.0)


class TestFaultyUnit:
    def test_soft_fault_detected_and_blamed(self):
        golden = divider()
        engine = Flames(golden)
        faulty = apply_fault(golden, Fault(FaultKind.PARAM, "Rb", value=1.5e3))
        op = DCSolver(faulty).solve()
        result = engine.diagnose([probe(op, "mid", imprecision=0.02)])
        assert not result.is_consistent
        assert "Rb" in result.suspicions

    def test_diagnoses_are_single_faults_for_single_conflict(self):
        golden = divider()
        engine = Flames(golden)
        faulty = apply_fault(golden, Fault(FaultKind.SHORT, "Rb"))
        op = DCSolver(faulty).solve()
        result = engine.diagnose([probe(op, "mid", imprecision=0.02)])
        assert all(d.size == 1 for d in result.diagnoses)

    def test_measurement_for_unknown_point_rejected(self):
        engine = Flames(divider())
        with pytest.raises(KeyError):
            engine.diagnose([Measurement("V(zz)", FuzzyInterval.crisp(0.0))])

    def test_initial_suspects_from_support(self, amp_engine):
        golden = three_stage_amplifier()
        op = DCSolver(apply_fault(golden, Fault(FaultKind.SHORT, "R2"))).solve()
        result = amp_engine.diagnose(probe_all(op, ["vs"], imprecision=0.02))
        suspects = result.prediction_support["V(vs)"]
        assert {"T1", "T2", "T3", "R4"} <= suspects

    def test_more_probes_refine_candidates(self, amp_engine):
        """The paper: propagating V1 and V2 reduces the candidates."""
        golden = three_stage_amplifier()
        op = DCSolver(apply_fault(golden, Fault(FaultKind.SHORT, "R2"))).solve()
        coarse = amp_engine.diagnose(probe_all(op, ["vs"], imprecision=0.02))
        fine = amp_engine.diagnose(probe_all(op, ["vs", "v2", "v1"], imprecision=0.02))
        assert len(fine.suspicions) < len(coarse.suspicions)
        assert "R2" in fine.suspicions
        # Stage 3 is exonerated once V2 corroborates.
        assert "T3" not in fine.suspicions
        assert "R6" not in fine.suspicions

    def test_consistency_row_signs(self, amp_engine):
        golden = three_stage_amplifier()
        op = DCSolver(apply_fault(golden, Fault(FaultKind.OPEN, "R3"))).solve()
        result = amp_engine.diagnose(
            probe_all(op, ["vs", "v2", "v1"], imprecision=0.02)
        )
        row = {p: result.consistencies[p].signed for p in ["V(vs)", "V(v2)", "V(v1)"]}
        assert row["V(v1)"] == 1.0  # total conflict, measured high
        assert row["V(vs)"] == -1.0  # total conflict, measured low
        assert result.consistencies["V(v1)"].degree == 0.0

    def test_ranked_components_sorted(self, amp_engine):
        golden = three_stage_amplifier()
        op = DCSolver(apply_fault(golden, Fault(FaultKind.SHORT, "R2"))).solve()
        result = amp_engine.diagnose(
            probe_all(op, ["vs", "v2", "v1"], imprecision=0.02)
        )
        ranked = result.ranked_components()
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)


class TestConfiguration:
    def test_conflict_threshold_filters_noise(self):
        golden = divider()
        faulty = apply_fault(golden, Fault(FaultKind.PARAM, "Rb", value=1.08e3))
        op = DCSolver(faulty).solve()
        m = [probe(op, "mid", imprecision=0.02)]
        permissive = Flames(golden, FlamesConfig(conflict_threshold=0.01)).diagnose(m)
        strict = Flames(golden, FlamesConfig(conflict_threshold=0.9)).diagnose(m)
        assert len(strict.nogoods) <= len(permissive.nogoods)

    def test_max_candidate_size(self):
        golden = divider()
        engine = Flames(golden, FlamesConfig(max_candidate_size=1))
        faulty = apply_fault(golden, Fault(FaultKind.SHORT, "Rb"))
        op = DCSolver(faulty).solve()
        result = engine.diagnose([probe(op, "mid", imprecision=0.02)])
        assert all(d.size <= 1 for d in result.diagnoses)

    def test_predictions_cached(self):
        engine = Flames(divider())
        first = engine.predictions()
        second = engine.predictions()
        assert first is second or first == second

    def test_design_modes_from_golden_solve(self):
        engine = Flames(three_stage_amplifier())
        assert engine.network.nominal_modes == {
            "T1": "active",
            "T2": "active",
            "T3": "active",
        }

    def test_repeated_diagnoses_independent(self, amp_engine):
        """Nogoods must not leak between diagnose() calls."""
        golden = three_stage_amplifier()
        op_bad = DCSolver(apply_fault(golden, Fault(FaultKind.SHORT, "R2"))).solve()
        amp_engine.diagnose(probe_all(op_bad, ["vs", "v2", "v1"], imprecision=0.02))
        op_good = DCSolver(golden).solve()
        healthy = amp_engine.diagnose(
            probe_all(op_good, ["vs", "v2", "v1"], imprecision=0.02)
        )
        assert healthy.is_consistent
