"""Property-based tests of the DC simulator's physical invariants."""

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit import (
    BJT,
    Circuit,
    DCSolver,
    Diode,
    GROUND,
    Resistor,
    VoltageSource,
    resistor_ladder,
)
from repro.circuit import generators

_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_ladder(seed: int, sections: int, supply: float) -> Circuit:
    with mock.patch.object(generators, "SUPPLY", supply):
        return resistor_ladder(sections, rng=random.Random(seed))


class TestLinearInvariants:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        sections=st.integers(min_value=1, max_value=5),
        supply=st.floats(min_value=0.5, max_value=48.0, allow_nan=False),
    )
    @settings(**_SETTINGS)
    def test_kcl_holds_everywhere(self, seed, sections, supply):
        circuit = _random_ladder(seed, sections, supply)
        op = DCSolver(circuit).solve()
        for net in circuit.non_ground_nets:
            total = 0.0
            for comp, pin in circuit.components_on(net):
                if isinstance(comp, Resistor):
                    current = op.current(comp.name)
                    total += current if pin == "a" else -current
                elif isinstance(comp, VoltageSource):
                    current = op.current(comp.name)
                    total += current if pin == "p" else -current
            assert total == pytest.approx(0.0, abs=1e-6)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        sections=st.integers(min_value=1, max_value=5),
    )
    @settings(**_SETTINGS)
    def test_voltages_bounded_by_supply(self, seed, sections):
        circuit = _random_ladder(seed, sections, 10.0)
        op = DCSolver(circuit).solve()
        for net in circuit.non_ground_nets:
            v = op.voltage(net)
            assert -1e-6 <= v <= 10.0 + 1e-6

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        sections=st.integers(min_value=1, max_value=4),
        scale=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    )
    @settings(**_SETTINGS)
    def test_linearity_in_the_source(self, seed, sections, scale):
        """Scaling the supply scales every voltage (pure resistor network)."""
        base = _random_ladder(seed, sections, 10.0)
        scaled = _random_ladder(seed, sections, 10.0 * scale)
        op_base = DCSolver(base).solve()
        op_scaled = DCSolver(scaled).solve()
        for net in base.non_ground_nets:
            if net.name == "in":
                continue
            assert op_scaled.voltage(net) == pytest.approx(
                op_base.voltage(net) * scale, rel=1e-6, abs=1e-9
            )

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        sections=st.integers(min_value=2, max_value=5),
    )
    @settings(**_SETTINGS)
    def test_ladder_voltages_monotone_decreasing(self, seed, sections):
        circuit = _random_ladder(seed, sections, 10.0)
        op = DCSolver(circuit).solve()
        voltages = [op.voltage(f"n{i}") for i in range(1, sections + 1)]
        assert all(a >= b - 1e-9 for a, b in zip(voltages, voltages[1:]))


class TestNonlinearInvariants:
    @given(
        vin=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        r=st.floats(min_value=100.0, max_value=100e3, allow_nan=False),
    )
    @settings(**_SETTINGS)
    def test_diode_never_conducts_backwards(self, vin, r):
        ckt = Circuit("d")
        ckt.add(VoltageSource("V1", vin, p="a", n=GROUND))
        ckt.add(Resistor("R1", r, a="a", b="k"))
        ckt.add(Diode("D1", anode="k", cathode=GROUND))
        op = DCSolver(ckt).solve()
        assert op.current("D1") >= -1e-9
        if op.state("D1") == "off":
            vd = op.voltage("k")
            assert vd <= 0.7 + 1e-6

    @given(
        vb=st.floats(min_value=0.0, max_value=9.0, allow_nan=False),
        re=st.floats(min_value=100.0, max_value=10e3, allow_nan=False),
        beta=st.floats(min_value=10.0, max_value=500.0, allow_nan=False),
    )
    @settings(**_SETTINGS)
    def test_follower_tracks_base_minus_vbe(self, vb, re, beta):
        ckt = Circuit("f")
        ckt.add(VoltageSource("Vcc", 10.0, p="vcc", n=GROUND))
        ckt.add(VoltageSource("Vb", vb, p="b", n=GROUND))
        ckt.add(BJT("T1", beta=beta, c="vcc", b="b", e="e"))
        ckt.add(Resistor("Re", re, a="e", b=GROUND))
        op = DCSolver(ckt).solve()
        if vb > 0.75:
            assert op.state("T1") == "active"
            assert op.voltage("e") == pytest.approx(vb - 0.7, abs=1e-6)
            assert op.current("T1", "b") >= -1e-12
        elif vb < 0.65:
            assert op.state("T1") == "cutoff"
            assert op.voltage("e") == pytest.approx(0.0, abs=1e-3)

    @given(
        beta=st.floats(min_value=10.0, max_value=500.0, allow_nan=False),
    )
    @settings(**_SETTINGS)
    def test_bjt_current_relations_in_active_region(self, beta):
        ckt = Circuit("b")
        ckt.add(VoltageSource("Vcc", 12.0, p="vcc", n=GROUND))
        ckt.add(VoltageSource("Vb", 2.0, p="b", n=GROUND))
        ckt.add(BJT("T1", beta=beta, c="vcc", b="b", e="e"))
        ckt.add(Resistor("Re", 1e3, a="e", b=GROUND))
        op = DCSolver(ckt).solve()
        assert op.state("T1") == "active"
        assert op.current("T1", "c") == pytest.approx(
            beta * op.current("T1", "b"), rel=1e-9
        )
        assert op.current("T1", "e") == pytest.approx(
            op.current("T1", "b") + op.current("T1", "c"), rel=1e-9
        )
