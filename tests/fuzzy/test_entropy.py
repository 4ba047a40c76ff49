"""Tests for fuzzy Shannon entropy (section 8.2)."""

import math

import pytest

from repro.fuzzy import FuzzyInterval, fuzzy_entropy, expected_entropy
from repro.fuzzy.entropy import entropy_term, entropy_term_product_form
from tests.helpers import is_close


def crisp(x):
    return FuzzyInterval.crisp(x)


class TestEntropyTerm:
    def test_crisp_half_matches_shannon(self):
        term = entropy_term(crisp(0.5))
        assert term.centroid == pytest.approx(0.5)  # -0.5*log2(0.5)

    def test_zero_and_one_contribute_nothing(self):
        assert entropy_term(crisp(0.0)).centroid == pytest.approx(0.0, abs=1e-6)
        assert entropy_term(crisp(1.0)).centroid == pytest.approx(0.0, abs=1e-6)

    def test_peak_handled_when_support_straddles_one_over_e(self):
        fi = FuzzyInterval(0.2, 0.6, 0.1, 0.1)  # support [0.1, 0.7] contains 1/e
        term = entropy_term(fi)
        peak = -(1 / math.e) * math.log2(1 / math.e)
        assert term.support[1] == pytest.approx(peak)

    def test_values_outside_unit_interval_are_clamped(self):
        fi = FuzzyInterval(0.9, 1.1, 0.2, 0.2)
        term = entropy_term(fi)
        assert term.support[0] >= -1e-9

    def test_product_form_is_wider(self):
        fi = FuzzyInterval(0.6, 0.7, 0.05, 0.05)
        tight = entropy_term(fi)
        wide = entropy_term_product_form(fi)
        assert wide.width >= tight.width - 1e-9


class TestFuzzyEntropy:
    def test_empty_system_zero(self):
        assert is_close(fuzzy_entropy([]), crisp(0.0))

    def test_uniform_two_components_is_one_bit(self):
        ent = fuzzy_entropy([crisp(0.5), crisp(0.5)])
        assert ent.centroid == pytest.approx(1.0)

    def test_certain_system_has_zero_entropy(self):
        ent = fuzzy_entropy([crisp(1.0), crisp(0.0), crisp(0.0)])
        assert ent.centroid == pytest.approx(0.0, abs=1e-6)

    def test_fuzzier_estimations_give_fuzzier_entropy(self):
        sharp = fuzzy_entropy([crisp(0.3), crisp(0.7)])
        fuzzy = fuzzy_entropy(
            [FuzzyInterval(0.3, 0.3, 0.1, 0.1), FuzzyInterval(0.7, 0.7, 0.1, 0.1)]
        )
        assert fuzzy.width > sharp.width

    def test_entropy_additive_over_disjoint_systems(self):
        a = [crisp(0.4)]
        b = [crisp(0.9)]
        joint = fuzzy_entropy(a + b)
        separate = fuzzy_entropy(a) + fuzzy_entropy(b)
        assert is_close(joint, separate, tol=1e-9)

    def test_alternative_term_injection(self):
        ent = fuzzy_entropy([crisp(0.5)], term=entropy_term_product_form)
        assert ent.centroid == pytest.approx(0.5, abs=1e-6)


class TestExpectedEntropy:
    def test_uniform_outcomes(self):
        e1 = crisp(1.0)
        e2 = crisp(3.0)
        exp = expected_entropy([e1, e2])
        assert exp.centroid == pytest.approx(2.0)

    def test_weighted_outcomes(self):
        exp = expected_entropy([crisp(1.0), crisp(3.0)], [3.0, 1.0])
        assert exp.centroid == pytest.approx(1.5)

    def test_fuzzy_weights_allowed(self):
        w = FuzzyInterval(1.0, 1.0, 0.2, 0.2)
        exp = expected_entropy([crisp(2.0), crisp(2.0)], [w, w])
        assert exp.centroid == pytest.approx(2.0)

    def test_zero_weights_fall_back_to_uniform(self):
        exp = expected_entropy([crisp(1.0), crisp(3.0)], [0.0, 0.0])
        assert exp.centroid == pytest.approx(2.0)

    def test_requires_outcomes(self):
        with pytest.raises(ValueError):
            expected_entropy([])

    def test_weight_count_must_match(self):
        with pytest.raises(ValueError):
            expected_entropy([crisp(1.0)], [1.0, 2.0])
