"""Tests for the nominal-prediction (sensitivity) unit."""

import pytest

from repro.circuit import (
    Circuit,
    DCSolver,
    GROUND,
    Resistor,
    VoltageSource,
    three_stage_amplifier,
)
from repro.core.predict import predict_nominal, variable_values


def divider(tolerance=0.05):
    ckt = Circuit("div")
    ckt.add(VoltageSource("Vin", 10.0, p="top", n=GROUND))
    ckt.add(Resistor("Rt", 1e3, tolerance, a="top", b="mid"))
    ckt.add(Resistor("Rb", 1e3, tolerance, a="mid", b=GROUND))
    return ckt


class TestVariableValues:
    def test_voltage_names(self):
        ckt = divider()
        values = variable_values(ckt, DCSolver(ckt).solve())
        assert values["V(mid)"] == pytest.approx(5.0, rel=1e-3)
        assert values["V(top)"] == pytest.approx(10.0, rel=1e-3)

    def test_current_conventions_satisfy_network_constraints(self):
        """Simulated values must satisfy the diagnosis model's equations."""
        from repro.circuit import ConstraintNetwork

        ckt = three_stage_amplifier()
        values = variable_values(ckt, DCSolver(ckt).solve())
        network = ConstraintNetwork(ckt)
        for constraint in network.constraints:
            names = constraint.variable_names
            if not all(n in values or n == "V(0)" for n in names):
                continue
            if not constraint.applicable_with_environment(
                {
                    n: None  # unknown estimates: designed modes apply
                    for n in set(names) | set(constraint.guard_variables)
                }
            )[0]:
                continue
            # Check the constraint's projection agrees with the simulated
            # target value (within the model's fuzzy band).
            from repro.fuzzy import FuzzyInterval

            target = constraint.variables[0]
            inputs = {
                n: FuzzyInterval.crisp(values.get(n, 0.0))
                for n in names
                if n != target.name
            }
            projected = constraint.project(target, inputs)
            if projected is None:
                continue
            lo, hi = projected.support
            truth = values.get(target.name, 0.0)
            assert lo - 1e-6 <= truth <= hi + 1e-6, constraint.name


class TestPredictions:
    def test_nominal_matches_simulation(self):
        predictions = predict_nominal(divider())
        assert predictions["V(mid)"].value.centroid == pytest.approx(5.0, rel=1e-3)

    def test_spread_reflects_tolerances(self):
        tight = predict_nominal(divider(0.01))["V(mid)"].value
        loose = predict_nominal(divider(0.10))["V(mid)"].value
        assert loose.width > tight.width

    def test_crisp_components_floor_at_model_noise(self):
        """Zero-tolerance parts still get the numerical noise floor."""
        from repro.core.predict import PREDICTION_FLOOR_VOLTAGE

        predictions = predict_nominal(divider(0.0))
        assert predictions["V(mid)"].value.width == pytest.approx(
            2 * PREDICTION_FLOOR_VOLTAGE
        )

    def test_near_zero_currents_do_not_ghost_conflict(self):
        """gmin leakage must stay inside the prediction's noise floor."""
        from repro.circuit import amplifier_cascade

        predictions = predict_nominal(amplifier_cascade())
        amp1_current = predictions["I(amp1)"].value
        assert amp1_current.membership(0.0) > 0.99

    def test_support_includes_structural_dependence(self):
        """Even zero-tolerance components appear in the support."""
        predictions = predict_nominal(divider(0.0))
        assert predictions["V(mid)"].support == frozenset({"Vin", "Rt", "Rb"})

    def test_support_excludes_independent_components(self):
        """The supply node's prediction depends only on the source."""
        predictions = predict_nominal(three_stage_amplifier())
        assert predictions["V(vcc)"].support == frozenset({"Vcc"})

    def test_fault_probes_extend_support(self):
        """R2 barely moves V1 at small signal but decides it when shorted."""
        predictions = predict_nominal(three_stage_amplifier())
        assert "R2" in predictions["V(v1)"].support

    def test_three_stage_prediction_core(self):
        predictions = predict_nominal(three_stage_amplifier())
        assert predictions["V(v1)"].value.centroid == pytest.approx(1.22, abs=0.02)
        assert predictions["V(vs)"].value.centroid == pytest.approx(16.32, abs=0.05)

    def test_single_path_output_supported_by_most_components(self):
        """The paper: a faulty output 'suspects all the modules'."""
        predictions = predict_nominal(three_stage_amplifier())
        support = predictions["V(vs)"].support
        assert {"R4", "R5", "R6", "T1", "T2", "T3", "R1", "R3"} <= support

    def test_prediction_contains_true_value_within_tolerance(self):
        """Perturbing any single parameter within tolerance keeps the
        true value inside the prediction's support."""
        from repro.circuit import apply_fault, Fault, FaultKind

        golden = divider(0.05)
        predictions = predict_nominal(golden)
        drifted = apply_fault(
            golden, Fault(FaultKind.PARAM, "Rb", value=1e3 * 1.04)
        )
        true_mid = DCSolver(drifted).solve().voltage("mid")
        lo, hi = predictions["V(mid)"].value.support
        assert lo <= true_mid <= hi
