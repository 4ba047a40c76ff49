"""Tests for figure-4 coincidence classification."""

import pytest

from repro.core.coincidence import CoincidenceKind, classify, resolve
from repro.fuzzy import FuzzyInterval
from tests.helpers import is_close


class TestClassification:
    def test_corroboration(self):
        v = FuzzyInterval(1.0, 2.0, 0.5, 0.5)
        coin = classify(v, v)
        assert coin.kind is CoincidenceKind.CORROBORATION
        assert coin.conflict_degree <= 1e-9

    def test_a_splits_b(self):
        a = FuzzyInterval(1.4, 1.6, 0.1, 0.1)
        b = FuzzyInterval(1.0, 2.0, 0.5, 0.5)
        coin = classify(a, b)
        assert coin.kind is CoincidenceKind.A_SPLITS_B
        assert coin.conflict_degree <= 1e-9

    def test_b_splits_a(self):
        a = FuzzyInterval(1.0, 2.0, 0.5, 0.5)
        b = FuzzyInterval(1.4, 1.6, 0.1, 0.1)
        coin = classify(a, b)
        assert coin.kind is CoincidenceKind.B_SPLITS_A
        assert coin.conflict_degree <= 1e-9

    def test_partial_conflict(self):
        # Cores disjoint, slopes overlapping: a genuine partial conflict.
        a = FuzzyInterval(1.0, 1.5, 0.2, 0.4)
        b = FuzzyInterval(2.0, 2.8, 0.4, 0.2)
        coin = classify(a, b)
        assert coin.kind is CoincidenceKind.PARTIAL_CONFLICT
        assert 0.0 < coin.conflict_degree < 1.0

    def test_core_agreement_is_not_a_conflict(self):
        """Overlapping cores: the most-plausible readings agree, so the
        possibility cap suppresses the tolerance-slope disagreement."""
        a = FuzzyInterval(1.0, 2.0, 0.2, 0.2)
        b = FuzzyInterval(1.8, 2.8, 0.2, 0.2)
        coin = classify(a, b)
        assert coin.conflict_degree == pytest.approx(0.0)

    def test_total_conflict(self):
        a = FuzzyInterval(0.0, 1.0)
        b = FuzzyInterval(3.0, 4.0)
        coin = classify(a, b)
        assert coin.kind is CoincidenceKind.CONFLICT
        assert coin.conflict_degree == pytest.approx(1.0)

    def test_direction_of_conflict(self):
        low = FuzzyInterval(0.0, 1.0)
        high = FuzzyInterval(3.0, 4.0)
        assert classify(low, high).direction == -1
        assert classify(high, low).direction == 1

    def test_worst_consistency_tracked(self):
        narrow = FuzzyInterval(1.9, 2.1, 0.1, 0.1)
        wide = FuzzyInterval(1.0, 2.0, 0.5, 0.5)
        coin = classify(narrow, wide)
        # The wide value is less consistent with the narrow than vice versa.
        assert coin.worst.degree == min(coin.a_in_b.degree, coin.b_in_a.degree)

    def test_conflict_degree_bounded_by_dc_and_possibility(self):
        a = FuzzyInterval(1.0, 1.5, 0.2, 0.4)
        b = FuzzyInterval(2.0, 2.8, 0.4, 0.2)
        coin = classify(a, b)
        assert coin.conflict_degree <= 1.0 - max(
            coin.a_in_b.degree, coin.b_in_a.degree
        ) + 1e-12
        assert coin.conflict_degree <= 1.0 - coin.overlap_possibility + 1e-12


class TestResolution:
    def test_conflict_yields_no_value(self):
        narrowed, degree = resolve(FuzzyInterval(0.0, 1.0), FuzzyInterval(3.0, 4.0))
        assert narrowed is None
        assert degree == pytest.approx(1.0)

    def test_refinement_keeps_narrow(self):
        narrow = FuzzyInterval(1.4, 1.6, 0.1, 0.1)
        wide = FuzzyInterval(1.0, 2.0, 0.5, 0.5)
        narrowed, degree = resolve(narrow, wide)
        assert degree == pytest.approx(0.0)
        assert wide.contains(narrowed)
        assert narrowed.core == narrow.core

    def test_partial_conflict_narrows_and_scores(self):
        a = FuzzyInterval(1.0, 1.5, 0.2, 0.4)
        b = FuzzyInterval(2.0, 2.8, 0.4, 0.2)
        narrowed, degree = resolve(a, b)
        assert narrowed is not None
        assert 0.0 < degree < 1.0
        # The narrowed value covers the overlap region.
        assert narrowed.support[0] >= a.support[0]
        assert narrowed.support[1] <= b.support[1]

    def test_corroboration_returns_same(self):
        v = FuzzyInterval(1.0, 2.0, 0.5, 0.5)
        narrowed, degree = resolve(v, v)
        assert degree == 0.0
        assert is_close(narrowed, v)
