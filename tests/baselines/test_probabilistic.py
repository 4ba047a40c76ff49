"""Tests for the GDE-style probabilistic planner and the random prober."""

import math

import pytest

from repro.baselines import GdeTestPlanner, RandomProbePlanner, shannon_entropy
from repro.circuit import (
    DCSolver,
    Fault,
    FaultKind,
    apply_fault,
    probe_all,
    three_stage_amplifier,
)
from repro.core import Flames


@pytest.fixture(scope="module")
def engine():
    return Flames(three_stage_amplifier())


@pytest.fixture(scope="module")
def faulty_result(engine):
    golden = three_stage_amplifier()
    op = DCSolver(apply_fault(golden, Fault(FaultKind.SHORT, "R2"))).solve()
    return engine.diagnose(probe_all(op, ["vs", "v2", "v1"], imprecision=0.02))


class TestShannonEntropy:
    def test_certain_bits_zero(self):
        assert shannon_entropy([0.0, 1.0]) == pytest.approx(0.0)

    def test_half_is_one_bit_each(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(2.0)

    def test_monotone_toward_half(self):
        assert shannon_entropy([0.3]) < shannon_entropy([0.4]) < shannon_entropy([0.5])

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            shannon_entropy([1.2])


class TestGdePlanner:
    def test_posteriors_raise_with_suspicion(self, engine, faulty_result):
        planner = GdeTestPlanner(engine)
        posteriors = planner.probabilities(faulty_result)
        assert posteriors["R2"] > posteriors["R6"]
        assert posteriors["R6"] == pytest.approx(0.02)

    def test_ranking_sorted(self, engine, faulty_result):
        planner = GdeTestPlanner(engine)
        ranked = planner.recommend(faulty_result)
        scores = [t.expected for t in ranked]
        assert scores == sorted(scores)

    def test_measured_points_excluded(self, engine, faulty_result):
        planner = GdeTestPlanner(engine)
        points = {t.point for t in planner.recommend(faulty_result)}
        assert "V(vs)" not in points

    def test_best_prefers_informative_stage(self, engine, faulty_result):
        planner = GdeTestPlanner(engine)
        best = planner.best(faulty_result)
        assert best.point in ("V(n1)", "V(n2)")

    def test_empty_pool(self, engine, faulty_result):
        planner = GdeTestPlanner(engine)
        assert planner.best(faulty_result, available=[]) is None


class TestRandomPlanner:
    def test_deterministic_for_seed(self, engine, faulty_result):
        a = RandomProbePlanner(engine, seed=3).best(faulty_result)
        b = RandomProbePlanner(engine, seed=3).best(faulty_result)
        assert a.point == b.point

    def test_respects_pool(self, engine, faulty_result):
        planner = RandomProbePlanner(engine, seed=1)
        best = planner.best(faulty_result, available=["V(n1)"])
        assert best.point == "V(n1)"

    def test_exhausted_pool(self, engine, faulty_result):
        planner = RandomProbePlanner(engine, seed=1)
        assert planner.best(faulty_result, available=[]) is None

    def test_expected_entropy_is_nan(self, engine, faulty_result):
        best = RandomProbePlanner(engine, seed=1).best(faulty_result)
        assert math.isnan(best.expected)
