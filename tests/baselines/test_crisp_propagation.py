"""Tests for the DIANA-style crisp baseline diagnoser."""

import pytest

from repro.baselines import CrispDiagnoser, crispify
from repro.circuit import (
    DCSolver,
    Fault,
    FaultKind,
    apply_fault,
    probe_all,
    three_stage_amplifier,
)
from repro.core import Flames
from repro.fuzzy import FuzzyInterval


class TestCrispify:
    def test_folds_slopes_into_bounds(self):
        fz = FuzzyInterval(1.0, 2.0, 0.5, 0.5)
        crisp = crispify(fz)
        assert crisp.as_tuple() == (0.5, 2.5, 0.0, 0.0)

    def test_crisp_stays_crisp(self):
        fz = FuzzyInterval.crisp_interval(1.0, 2.0)
        assert crispify(fz) == fz


@pytest.fixture(scope="module")
def engines():
    return CrispDiagnoser(three_stage_amplifier()), Flames(three_stage_amplifier())


class TestBehaviour:
    def test_network_constants_crispified(self, engines):
        crisp, _ = engines
        for constraint in crisp.network.constraints:
            for attribute in ("rhs", "k", "interval"):
                value = getattr(constraint, attribute, None)
                if value is not None:
                    assert value.alpha == 0.0 and value.beta == 0.0

    def test_predictions_crispified(self, engines):
        crisp, _ = engines
        for prediction in crisp.predictions().values():
            assert prediction.alpha == 0.0 and prediction.beta == 0.0

    def test_hard_fault_detected_by_both(self, engines):
        crisp, fuzzy = engines
        golden = three_stage_amplifier()
        op = DCSolver(apply_fault(golden, Fault(FaultKind.SHORT, "R2"))).solve()
        measurements = probe_all(op, ["vs", "v2", "v1"], imprecision=0.02)
        assert not crisp.diagnose(measurements).is_consistent
        assert not fuzzy.diagnose(measurements).is_consistent

    def test_soft_fault_masked_by_crisp_only(self, engines):
        """The paper's central claim (figure 2 generalised)."""
        crisp, fuzzy = engines
        golden = three_stage_amplifier()
        op = DCSolver(
            apply_fault(golden, Fault(FaultKind.PARAM, "R3", value=26.4e3))
        ).solve()
        measurements = probe_all(op, ["vs", "v2", "v1"], imprecision=0.02)
        crisp_result = crisp.diagnose(measurements)
        fuzzy_result = fuzzy.diagnose(measurements)
        assert crisp_result.is_consistent, "crisp engine should mask the drift"
        assert not fuzzy_result.is_consistent, "fuzzy engine should expose it"

    def test_crisp_nogoods_unweighted(self, engines):
        crisp, _ = engines
        golden = three_stage_amplifier()
        op = DCSolver(apply_fault(golden, Fault(FaultKind.SHORT, "R2"))).solve()
        result = crisp.diagnose(probe_all(op, ["vs", "v2", "v1"], imprecision=0.02))
        assert all(n.degree >= 0.999 for n in result.nogoods)

    def test_crisp_threshold_enforced(self, engines):
        crisp, _ = engines
        assert crisp.config.conflict_threshold > 0.99
