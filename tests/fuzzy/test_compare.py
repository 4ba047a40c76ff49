"""Tests for the degree of consistency Dc and possibility measures (section 6.1.2)."""

import pytest

from repro.fuzzy import FuzzyInterval, consistency, possibility, rank_key
from repro.fuzzy.compare import Consistency


class TestConsistencyDegree:
    def test_inclusion_gives_one(self):
        nominal = FuzzyInterval(0.0, 10.0, 1.0, 1.0)
        measured = FuzzyInterval(4.0, 6.0, 0.5, 0.5)
        c = consistency(measured, nominal)
        assert c.degree == 1.0
        assert c.direction == 0

    def test_disjoint_gives_zero(self):
        nominal = FuzzyInterval(0.0, 1.0, 0.0, 0.0)
        measured = FuzzyInterval(5.0, 6.0, 0.0, 0.0)
        c = consistency(measured, nominal)
        assert c.degree == 0.0
        assert c.direction == 1

    def test_partial_overlap_strictly_between(self):
        nominal = FuzzyInterval(0.0, 2.0, 0.5, 0.5)
        measured = FuzzyInterval(1.5, 3.5, 0.5, 0.5)
        c = consistency(measured, nominal)
        assert 0.0 < c.degree < 1.0

    def test_paper_diode_example_degree_half(self):
        """Ir1 = 105 uA against the <=100 uA fuzzy set [-1,100,0,10] -> 0.5."""
        nominal = FuzzyInterval(-1.0, 100.0, 0.0, 10.0)
        measured = FuzzyInterval.crisp(105.0)
        c = consistency(measured, nominal)
        assert c.degree == pytest.approx(0.5)

    def test_paper_diode_example_total_conflict(self):
        """Ir2 = 200 uA is entirely outside the fuzzy current bound -> Dc 0."""
        nominal = FuzzyInterval(-1.0, 100.0, 0.0, 10.0)
        measured = FuzzyInterval.crisp(200.0)
        c = consistency(measured, nominal)
        assert c.degree == 0.0
        assert c.direction == 1

    def test_point_measurement_uses_membership(self):
        nominal = FuzzyInterval(1.0, 2.0, 1.0, 1.0)
        c = consistency(FuzzyInterval.crisp(0.5), nominal)
        assert c.degree == pytest.approx(0.5)

    def test_point_nominal_uses_measured_membership(self):
        measured = FuzzyInterval(1.0, 2.0, 1.0, 1.0)
        c = consistency(measured, FuzzyInterval.crisp(2.5))
        assert c.degree == pytest.approx(0.5)

    def test_two_coincident_points_fully_consistent(self):
        c = consistency(FuzzyInterval.crisp(3.0), FuzzyInterval.crisp(3.0))
        assert c.degree == 1.0
        assert c.direction == 0

    def test_two_distinct_points_fully_inconsistent(self):
        c = consistency(FuzzyInterval.crisp(3.0), FuzzyInterval.crisp(4.0))
        assert c.degree == 0.0
        assert c.direction == -1

    def test_degree_monotone_in_deviation(self):
        """Sliding a measurement away from nominal never raises Dc."""
        nominal = FuzzyInterval(10.0, 10.0, 1.0, 1.0)
        degrees = [
            consistency(FuzzyInterval(10.0 + d, 10.0 + d, 0.3, 0.3), nominal).degree
            for d in (0.0, 0.4, 0.8, 1.2, 1.6)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(degrees, degrees[1:]))


class TestDirectionAndSign:
    def test_signed_matches_degree_when_overlapping(self):
        nominal = FuzzyInterval(0.0, 2.0, 0.5, 0.5)
        measured = FuzzyInterval(1.5, 3.5, 0.5, 0.5)
        c = consistency(measured, nominal)
        assert c.signed == c.degree

    def test_signed_is_minus_one_for_total_low_conflict(self):
        """Figure 7's 'Dc(V1m, V1n) = -1' for the open-node defect."""
        nominal = FuzzyInterval(5.0, 5.0, 0.5, 0.5)
        measured = FuzzyInterval.crisp(0.0)
        c = consistency(measured, nominal)
        assert c.signed == -1.0
        assert c.direction == -1

    def test_signed_is_plus_one_for_total_high_conflict(self):
        nominal = FuzzyInterval(5.0, 5.0, 0.5, 0.5)
        measured = FuzzyInterval.crisp(10.0)
        c = consistency(measured, nominal)
        assert c.signed == 1.0

    def test_direction_reported_for_partial_conflicts(self):
        nominal = FuzzyInterval(5.0, 5.0, 1.0, 1.0)
        low = consistency(FuzzyInterval(4.4, 4.4, 0.5, 0.5), nominal)
        high = consistency(FuzzyInterval(5.6, 5.6, 0.5, 0.5), nominal)
        assert low.direction == -1
        assert high.direction == 1

    def test_signed_zero_conflict_without_direction(self):
        c = Consistency(0.0, 0)
        assert c.signed == 0.0


class TestPossibilityNecessity:
    def test_possibility_one_when_cores_meet(self):
        a = FuzzyInterval(1.0, 2.0, 0.5, 0.5)
        b = FuzzyInterval(2.0, 3.0, 0.5, 0.5)
        assert possibility(a, b) == 1.0

    def test_possibility_zero_when_disjoint(self):
        a = FuzzyInterval(0.0, 1.0, 0.0, 0.0)
        b = FuzzyInterval(2.0, 3.0, 0.0, 0.0)
        assert possibility(a, b) == 0.0

    def test_possibility_at_slope_crossing(self):
        a = FuzzyInterval(0.0, 0.0, 2.0, 2.0)
        b = FuzzyInterval(2.0, 2.0, 2.0, 2.0)
        assert possibility(a, b) == pytest.approx(0.5)

    def test_possibility_symmetric(self):
        a = FuzzyInterval(1.0, 2.0, 0.7, 0.9)
        b = FuzzyInterval(2.4, 3.0, 0.8, 0.1)
        assert possibility(a, b) == pytest.approx(possibility(b, a))

    def test_possibility_crisp_edges(self):
        a = FuzzyInterval.crisp_interval(0.0, 2.0)
        b = FuzzyInterval(3.0, 4.0, 1.5, 0.0)
        # b's rising slope at x=2 has membership (2-1.5)/1.5 = 1/3.
        assert possibility(a, b) == pytest.approx(1.0 / 3.0)

class TestRanking:
    def test_rank_orders_by_centroid(self):
        small = FuzzyInterval(1.0, 1.0, 0.1, 0.1)
        large = FuzzyInterval(5.0, 5.0, 0.1, 0.1)
        assert rank_key(small) < rank_key(large)

    def test_rank_breaks_ties_on_width(self):
        narrow = FuzzyInterval(1.0, 1.0, 0.1, 0.1)
        wide = FuzzyInterval(1.0, 1.0, 0.5, 0.5)
        assert rank_key(narrow) < rank_key(wide)

    def test_sorting_fuzzy_values(self):
        values = [
            FuzzyInterval(3.0, 3.0, 0.1, 0.1),
            FuzzyInterval(1.0, 1.0, 0.1, 0.1),
            FuzzyInterval(2.0, 2.0, 0.1, 0.1),
        ]
        ordered = sorted(values, key=rank_key)
        assert [v.m1 for v in ordered] == [1.0, 2.0, 3.0]
