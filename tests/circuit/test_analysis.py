"""Tests for tolerance analysis (Monte Carlo, worst case)."""

import statistics

import pytest

from repro.circuit import (
    Circuit,
    GROUND,
    Resistor,
    VoltageSource,
    three_stage_amplifier,
)
from repro.circuit.analysis import monte_carlo, worst_case


def divider(tolerance=0.05):
    ckt = Circuit("div")
    ckt.add(VoltageSource("Vin", 10.0, p="top", n=GROUND))
    ckt.add(Resistor("Rt", 1e3, tolerance, a="top", b="mid"))
    ckt.add(Resistor("Rb", 1e3, tolerance, a="mid", b=GROUND))
    return ckt


class TestMonteCarlo:
    def test_statistics_centre_on_nominal(self):
        result = monte_carlo(divider(), samples=200, seed=1)
        assert result.mean("mid") == pytest.approx(5.0, abs=0.1)
        assert statistics.pstdev(result.voltages["mid"]) > 0.0
        assert result.failed == 0

    def test_deterministic_for_seed(self):
        a = monte_carlo(divider(), samples=50, seed=7)
        b = monte_carlo(divider(), samples=50, seed=7)
        assert a.voltages == b.voltages

    def test_spread_scales_with_tolerance(self):
        tight = monte_carlo(divider(0.01), samples=100, seed=3)
        loose = monte_carlo(divider(0.10), samples=100, seed=3)
        assert loose.spread("mid") > tight.spread("mid")

    def test_circuit_restored(self):
        golden = divider()
        monte_carlo(golden, samples=20, seed=0)
        assert golden.component("Rt").resistance == 1e3

    def test_net_selection(self):
        result = monte_carlo(divider(), samples=10, seed=0, nets=["mid"])
        assert set(result.voltages) == {"mid"}

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            monte_carlo(divider(), samples=0)

    def test_predictions_contain_monte_carlo_samples(self):
        """The fuzzy prediction envelopes must cover sampled behaviour —
        the cross-validation between the model database and reality."""
        from repro.core.predict import predict_nominal

        golden = three_stage_amplifier()
        predictions = predict_nominal(golden)
        result = monte_carlo(golden, samples=60, seed=5, nets=["v1", "v2", "vs"])
        for net in ("v1", "v2", "vs"):
            lo, hi = predictions[f"V({net})"].value.support
            for sample in result.voltages[net]:
                assert lo - 0.02 <= sample <= hi + 0.02, net


class TestWorstCase:
    def test_band_contains_nominal(self):
        from repro.circuit import DCSolver

        golden = divider()
        nominal = DCSolver(golden).solve().voltage("mid")
        result = worst_case(golden)
        lo, hi = result.band("mid")
        assert lo <= nominal <= hi

    def test_exhaustive_for_small_circuits(self):
        result = worst_case(divider())
        assert result.corners_examined == 4  # two toleranced resistors

    def test_corner_band_contains_monte_carlo(self):
        golden = divider()
        corners = worst_case(golden)
        sampled = monte_carlo(golden, samples=100, seed=2)
        lo, hi = corners.band("mid")
        assert lo - 1e-9 <= sampled.minimum("mid")
        assert sampled.maximum("mid") <= hi + 1e-9

    def test_one_at_a_time_fallback(self):
        golden = three_stage_amplifier()
        result = worst_case(golden, nets=["vs"], exhaustive_limit=3)
        # 2 corners per varied parameter + the 2 all-extreme corners.
        assert result.corners_examined > 10
        lo, hi = result.band("vs")
        assert lo < 16.32 < hi

    def test_circuit_restored(self):
        golden = divider()
        worst_case(golden)
        assert golden.component("Rb").resistance == 1e3
