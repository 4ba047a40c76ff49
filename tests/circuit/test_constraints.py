"""Tests for the constraint-network view (the model database)."""

import pytest

from repro.circuit import (
    Circuit,
    ConstraintNetwork,
    GROUND,
    Resistor,
    VoltageSource,
    diode_resistor_circuit,
    three_stage_amplifier,
)
from repro.circuit.constraints import (
    LinearConstraint,
    RangeConstraint,
    ScaledDifferenceConstraint,
    Variable,
)
from repro.fuzzy import FuzzyInterval


def var(name, kind="voltage"):
    return Variable(name, kind)


class TestVariable:
    def test_seed_ranges(self):
        assert var("V(x)").seed.support == (-60.0, 60.0)
        assert var("I(x)", "current").seed.support == (-10.0, 10.0)


class TestLinearConstraint:
    def test_projection_each_direction(self):
        x, y, z = var("x"), var("y"), var("z")
        c = LinearConstraint(
            "sum", {x: 1.0, y: 2.0, z: -1.0}, FuzzyInterval.crisp(10.0)
        )
        values = {"y": FuzzyInterval.crisp(3.0), "z": FuzzyInterval.crisp(2.0)}
        assert c.project(x, values).core == (6.0, 6.0)
        values = {"x": FuzzyInterval.crisp(6.0), "z": FuzzyInterval.crisp(2.0)}
        assert c.project(y, values).core == (3.0, 3.0)
        values = {"x": FuzzyInterval.crisp(6.0), "y": FuzzyInterval.crisp(3.0)}
        assert c.project(z, values).core == (2.0, 2.0)

    def test_fuzzy_rhs_propagates_spread(self):
        x, y = var("x"), var("y")
        c = LinearConstraint("d", {x: 1.0, y: -1.0}, FuzzyInterval(0.7, 0.7, 0.05, 0.05))
        projected = c.project(x, {"y": FuzzyInterval.crisp(1.0)})
        assert projected.core == (1.7, 1.7)
        assert projected.alpha == pytest.approx(0.05)

    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            LinearConstraint("bad", {}, FuzzyInterval.crisp(0.0))

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            LinearConstraint("bad", {var("x"): 0.0}, FuzzyInterval.crisp(0.0))


class TestScaledDifferenceConstraint:
    def _ohm(self):
        return ScaledDifferenceConstraint(
            "ohm",
            var("Va"),
            var("Vb"),
            var("I", "current"),
            FuzzyInterval.around(1e3, 0.05),
        )

    def test_solve_for_plus(self):
        c = self._ohm()
        out = c.project(
            var("Va"),
            {"Vb": FuzzyInterval.crisp(1.0), "I": FuzzyInterval.crisp(1e-3)},
        )
        assert out.core == (2.0, 2.0)

    def test_solve_for_minus(self):
        c = self._ohm()
        out = c.project(
            var("Vb"),
            {"Va": FuzzyInterval.crisp(2.0), "I": FuzzyInterval.crisp(1e-3)},
        )
        assert out.core == (1.0, 1.0)

    def test_solve_for_current(self):
        c = self._ohm()
        out = c.project(
            var("I", "current"),
            {"Va": FuzzyInterval.crisp(2.0), "Vb": FuzzyInterval.crisp(1.0)},
        )
        assert out.core == (pytest.approx(1e-3), pytest.approx(1e-3))

    def test_gain_without_minus_term(self):
        c = ScaledDifferenceConstraint(
            "gain", var("Vout"), None, var("Vin"), FuzzyInterval.number(2.0, 0.05)
        )
        out = c.project(var("Vout"), {"Vin": FuzzyInterval.crisp(3.0)})
        assert out.core == (6.0, 6.0)
        back = c.project(var("Vin"), {"Vout": FuzzyInterval.crisp(6.0)})
        assert back.core == (3.0, 3.0)

    def test_zero_spanning_coefficient_not_invertible(self):
        c = ScaledDifferenceConstraint(
            "odd", var("x"), None, var("y"), FuzzyInterval(-1.0, 1.0)
        )
        assert c.project(var("y"), {"x": FuzzyInterval.crisp(1.0)}) is None

    def test_unknown_target_rejected(self):
        with pytest.raises(KeyError):
            self._ohm().project(var("nope"), {})


class TestRangeConstraint:
    def test_projects_its_interval(self):
        leak = FuzzyInterval(-1e-6, 100e-6, 0.0, 10e-6)
        c = RangeConstraint("leak", var("I", "current"), leak)
        assert c.project(var("I", "current"), {}) is leak


class TestGuards:
    def test_guard_defaults_to_applicable(self):
        c = RangeConstraint("r", var("x"), FuzzyInterval.crisp(0.0))
        assert c.applicable_with_environment({})[0]

    def test_guard_callable_controls(self):
        c = RangeConstraint(
            "r", var("x"), FuzzyInterval.crisp(0.0), guard=lambda est: False
        )
        assert not c.applicable_with_environment({})[0]


class TestNetworkBuild:
    def test_three_stage_inventory(self):
        net = ConstraintNetwork(three_stage_amplifier())
        assert len(net.circuit.components) == 10
        assert len(net.variables) > 15
        # Every component contributes at least one guarded/unguarded model.
        for comp in net.circuit.components:
            assert any(
                comp.name in c.assumptions for c in net.constraints
            ), comp.name

    def test_kcl_per_non_ground_net(self):
        net = ConstraintNetwork(diode_resistor_circuit())
        kcl_names = {c.name for c in net.constraints if c.name.startswith("KCL")}
        assert kcl_names == {"KCL(vin)", "KCL(n1)", "KCL(n2)"}

    def test_kcl_unassumed_by_default(self):
        net = ConstraintNetwork(diode_resistor_circuit())
        for c in net.constraints:
            if c.name.startswith("KCL"):
                assert c.assumptions == frozenset()

    def test_assumable_nodes_tag_kcl(self):
        net = ConstraintNetwork(diode_resistor_circuit(), assumable_nodes=True)
        kcl = next(c for c in net.constraints if c.name == "KCL(n1)")
        assert kcl.assumptions == frozenset({"node:n1"})

    def test_constraints_on_variable(self):
        net = ConstraintNetwork(diode_resistor_circuit())
        names = {c.name for c in net.constraints if "I(r1)" in c.variable_names}
        assert "Ohm(r1)" in names
        assert "KCL(vin)" in names

    def test_component_models_carry_their_assumption(self):
        net = ConstraintNetwork(three_stage_amplifier())
        ohm_r1 = next(c for c in net.constraints if c.name == "Ohm(R1)")
        assert ohm_r1.assumptions == frozenset({"R1"})

    def test_bjt_modal_constraints_present(self):
        net = ConstraintNetwork(three_stage_amplifier())
        names = {c.name for c in net.constraints}
        for expected in (
            "Vbe(T1)",
            "Beta(T1)",
            "VceSat(T1)",
            "CutoffIb(T1)",
            "Ie(T1)",
            "IeFromIb(T1)",
        ):
            assert expected in names

    def test_nominal_modes_respected(self):
        """A BJT designed into cutoff starts with cutoff constraints live."""
        ckt = three_stage_amplifier()
        net = ConstraintNetwork(ckt, nominal_modes={"T1": "cutoff"})
        cutoff = next(c for c in net.constraints if c.name == "CutoffIb(T1)")
        conducting = next(c for c in net.constraints if c.name == "Vbe(T1)")
        unknown = {name: None for name in net.variables}
        assert cutoff.applicable_with_environment(unknown)[0]
        assert not conducting.applicable_with_environment(unknown)[0]

    def test_diode_mode_guards_follow_estimates(self):
        net = ConstraintNetwork(diode_resistor_circuit(), nominal_modes={"d1": "on"})
        on = next(c for c in net.constraints if c.name == "DiodeOn(d1)")
        leak = next(c for c in net.constraints if c.name == "DiodeLeak(d1)")
        # Unknown estimates: nominal mode (conducting) applies.
        unknown = {"V(n1)": None, "V(n2)": None}
        assert on.applicable_with_environment(unknown)[0]
        assert not leak.applicable_with_environment(unknown)[0]
        # Measured 0.2 V across the junction: blocking entailed.
        est = {
            "V(n1)": FuzzyInterval.crisp(2.2),
            "V(n2)": FuzzyInterval.crisp(2.0),
        }
        assert not on.applicable_with_environment(est)[0]
        assert leak.applicable_with_environment(est)[0]

    def test_bjt_saturation_entailment_disables_beta(self):
        net = ConstraintNetwork(three_stage_amplifier())
        beta = next(c for c in net.constraints if c.name == "Beta(T2)")
        est = {
            "V(v1)": FuzzyInterval.crisp(13.7),
            "V(n2)": FuzzyInterval.crisp(13.0),
            "V(v2)": FuzzyInterval.crisp(13.1),
        }
        assert not beta.applicable_with_environment(est)[0]

    def test_unmodelled_component_kind_rejected(self):
        class Gizmo(Resistor):
            pass

        ckt = Circuit("g")
        ckt.add(VoltageSource("V1", 1.0, p="a", n=GROUND))
        ckt.add(Gizmo("G1", 1e3, a="a", b=GROUND))
        with pytest.raises(ValueError, match="Gizmo"):
            ConstraintNetwork(ckt)
