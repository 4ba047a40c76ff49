"""Tests for component models and their fuzzy parameters."""

import pytest

from repro.circuit import (
    Amplifier,
    BJT,
    Capacitor,
    CurrentSource,
    Diode,
    Resistor,
    VoltageSource,
)
from repro.fuzzy import FuzzyInterval


class TestResistor:
    def test_fuzzy_resistance_reflects_tolerance(self):
        r = Resistor("R1", 10e3, 0.05, a="x", b="y")
        fz = r.fuzzy_params()["resistance"]
        assert fz.core == (10e3, 10e3)
        assert fz.support == (9.5e3, 10.5e3)

    def test_zero_tolerance_is_crisp(self):
        r = Resistor("R1", 10e3, 0.0, a="x", b="y")
        assert r.fuzzy_params()["resistance"] == FuzzyInterval.crisp(10e3)

    def test_non_positive_resistance_rejected(self):
        with pytest.raises(ValueError):
            Resistor("R1", 0.0, a="x", b="y")

    def test_clone_roundtrip(self):
        r = Resistor("R1", 10e3, 0.02, a="x", b="y")
        c = r.clone()
        assert (c.name, c.resistance, c.tolerance) == ("R1", 10e3, 0.02)
        assert c.net("a").name == "x"


class TestCapacitor:
    def test_params(self):
        c = Capacitor("C1", 1e-6, a="x", b="y")
        assert "capacitance" in c.fuzzy_params()

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            Capacitor("C1", -1e-6, a="x", b="y")

    def test_clone(self):
        c = Capacitor("C1", 1e-6, a="x", b="y").clone()
        assert c.capacitance == 1e-6


class TestDiode:
    def test_leak_bound_matches_paper_shape(self):
        """The <=100uA condition as the fuzzy set [-1, 100, 0, 10] (uA)."""
        d = Diode("d1", leak_bound=100e-6, leak_soft=10e-6, anode="a", cathode="c")
        leak = d.fuzzy_params()["leak"]
        assert leak.m2 == pytest.approx(100e-6)
        assert leak.beta == pytest.approx(10e-6)
        assert leak.alpha == 0.0

    def test_v_on_fuzzy(self):
        d = Diode("d1", v_on=0.7, tolerance=0.05, anode="a", cathode="c")
        von = d.fuzzy_params()["v_on"]
        assert von.core == (0.7, 0.7)
        assert von.alpha == pytest.approx(0.035)

    def test_clone(self):
        d = Diode("d1", v_on=0.6, anode="a", cathode="c").clone()
        assert d.v_on == 0.6


class TestBJT:
    def test_params(self):
        t = BJT("T1", beta=300.0, c="c", b="b", e="e")
        params = t.fuzzy_params()
        assert params["beta"].core == (300.0, 300.0)
        assert params["beta"].support == (270.0, 330.0)  # 10% default
        assert params["vbe_on"].core == (0.7, 0.7)

    def test_non_positive_beta_rejected(self):
        with pytest.raises(ValueError):
            BJT("T1", beta=0.0, c="c", b="b", e="e")

    def test_clone(self):
        t = BJT("T1", beta=200.0, vbe_on=0.65, c="c", b="b", e="e").clone()
        assert (t.beta, t.vbe_on) == (200.0, 0.65)


class TestAmplifier:
    def test_gain_tolerance_is_absolute(self):
        """Paper figure 2: amp3 is [3, 3, 0.05, 0.05] — same 0.05 at gain 3."""
        a = Amplifier("amp3", 3.0, 0.05, inp="i", out="o")
        gain = a.fuzzy_params()["gain"]
        assert gain.as_tuple() == (3.0, 3.0, 0.05, 0.05)

    def test_clone(self):
        a = Amplifier("amp1", 2.0, inp="i", out="o").clone()
        assert a.gain == 2.0


class TestSources:
    def test_voltage_source_crisp_by_default(self):
        v = VoltageSource("V1", 5.0, p="p", n="n")
        assert v.fuzzy_params()["voltage"] == FuzzyInterval.crisp(5.0)

    def test_voltage_source_with_tolerance(self):
        v = VoltageSource("V1", 5.0, tolerance=0.01, p="p", n="n")
        assert v.fuzzy_params()["voltage"].support == (4.95, 5.05)

    def test_current_source(self):
        i = CurrentSource("I1", 1e-3, p="p", n="n")
        assert i.fuzzy_params()["current"].core == (1e-3, 1e-3)

    def test_clones(self):
        assert VoltageSource("V1", 5.0, p="p", n="n").clone().voltage == 5.0
        assert CurrentSource("I1", 1e-3, p="p", n="n").clone().current == 1e-3
