"""Tests for the paper circuits and the parametric generators."""

import random

import pytest

from repro.circuit import (
    DCSolver,
    amplifier_cascade,
    amplifier_chain,
    diode_resistor_circuit,
    divider_tree,
    resistor_ladder,
    three_stage_amplifier,
)
from repro.circuit.library import THREE_STAGE_PROBES
from repro.circuit.measurements import Measurement, probe, probe_all


class TestPaperCircuits:
    def test_cascade_structure(self):
        ckt = amplifier_cascade()
        assert {c.name for c in ckt.components} == {"Va", "amp1", "amp2", "amp3"}
        assert ckt.component("amp2").gain == 2.0

    def test_cascade_nominal(self):
        op = DCSolver(amplifier_cascade()).solve()
        assert op.voltage("d") == pytest.approx(9.0, rel=1e-6)

    def test_diode_circuit_values(self):
        ckt = diode_resistor_circuit()
        assert ckt.component("r1").resistance == 10e3
        assert ckt.component("r1").tolerance == 0.0  # crisp, as the paper treats it
        assert ckt.component("d1").leak_bound == pytest.approx(100e-6)

    def test_three_stage_published_values(self):
        ckt = three_stage_amplifier()
        values = {
            "R1": 200e3,
            "R2": 12e3,
            "R3": 24e3,
            "R4": 3e3,
            "R5": 2.2e3,
            "R6": 1.8e3,
        }
        for name, expected in values.items():
            assert ckt.component(name).resistance == expected
        betas = {"T1": 300.0, "T2": 200.0, "T3": 100.0}
        for name, expected in betas.items():
            assert ckt.component(name).beta == expected
        assert ckt.component("Vcc").voltage == 18.0

    def test_three_stage_probe_points_exist(self):
        ckt = three_stage_amplifier()
        nets = {n.name for n in ckt.nets}
        for p in THREE_STAGE_PROBES:
            assert p in nets

    def test_three_stage_all_linear(self):
        op = DCSolver(three_stage_amplifier()).solve()
        assert set(op.device_states.values()) == {"active"}


class TestGenerators:
    def test_ladder_size(self):
        ckt = resistor_ladder(4)
        assert len(ckt.components) == 1 + 2 * 4
        DCSolver(ckt).solve()

    def test_ladder_deterministic_without_rng(self):
        a = resistor_ladder(3)
        b = resistor_ladder(3)
        assert [c.resistance for c in a.components[1:]] == [
            c.resistance for c in b.components[1:]
        ]

    def test_ladder_randomised(self):
        ckt = resistor_ladder(3, rng=random.Random(42))
        resistances = {c.resistance for c in ckt.components[1:]}
        assert len(resistances) > 2

    def test_ladder_requires_sections(self):
        with pytest.raises(ValueError):
            resistor_ladder(0)

    def test_chain_voltages_bounded(self):
        ckt = amplifier_chain(6)
        op = DCSolver(ckt).solve()
        for i in range(1, 7):
            assert abs(op.voltage(f"s{i}")) <= 4.0

    def test_chain_requires_stages(self):
        with pytest.raises(ValueError):
            amplifier_chain(0)

    def test_divider_tree_attenuates_each_level(self):
        ckt = divider_tree(2)
        op = DCSolver(ckt).solve()
        # Each level divides (the lower levels load the upper dividers).
        assert 0.0 < op.voltage("tl") < op.voltage("t")
        assert 0.0 < op.voltage("tll") < op.voltage("tl")
        # The tree is symmetric.
        assert op.voltage("tl") == pytest.approx(op.voltage("tr"), rel=1e-9)

    def test_divider_tree_requires_depth(self):
        with pytest.raises(ValueError):
            divider_tree(0)


class TestMeasurements:
    def test_probe_wraps_reading(self):
        op = DCSolver(three_stage_amplifier()).solve()
        m = probe(op, "v1", imprecision=0.05)
        assert m.point == "V(v1)"
        assert m.value.core[0] == pytest.approx(op.voltage("v1"))
        assert m.value.alpha == pytest.approx(0.05)

    def test_probe_all(self):
        op = DCSolver(three_stage_amplifier()).solve()
        ms = probe_all(op, ["vs", "v2", "v1"])
        assert [m.point for m in ms] == ["V(vs)", "V(v2)", "V(v1)"]

    def test_measurement_repr(self):
        from repro.fuzzy import FuzzyInterval

        m = Measurement("V(x)", FuzzyInterval.crisp(1.0))
        assert "V(x)" in repr(m)
