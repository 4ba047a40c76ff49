"""Unit tests for the trapezoidal fuzzy interval (paper figure 1 & section 3)."""


import pytest

from repro.fuzzy import FuzzyInterval
from tests.helpers import is_close


class TestConstruction:
    def test_crisp_number_has_degenerate_shape(self):
        m = FuzzyInterval.crisp(3.0)
        assert m.as_tuple() == (3.0, 3.0, 0.0, 0.0)

    def test_crisp_interval(self):
        v = FuzzyInterval.crisp_interval(2.95, 3.05)
        assert v.as_tuple() == (2.95, 3.05, 0.0, 0.0)

    def test_fuzzy_number(self):
        v = FuzzyInterval.number(3.0, 0.05)
        assert v.as_tuple() == (3.0, 3.0, 0.05, 0.05)

    def test_from_support_core(self):
        v = FuzzyInterval.from_support_core((0.0, 10.0), (2.0, 8.0))
        assert v.as_tuple() == (2.0, 8.0, 2.0, 2.0)

    def test_from_support_core_rejects_core_outside(self):
        with pytest.raises(ValueError):
            FuzzyInterval.from_support_core((0.0, 1.0), (-1.0, 0.5))

    def test_around_models_relative_tolerance(self):
        r = FuzzyInterval.around(100.0, 0.05)
        assert r.support == (95.0, 105.0)
        assert r.core == (100.0, 100.0)

    def test_inverted_core_rejected(self):
        with pytest.raises(ValueError):
            FuzzyInterval(2.0, 1.0)

    def test_negative_slopes_rejected(self):
        with pytest.raises(ValueError):
            FuzzyInterval(1.0, 2.0, -0.5, 0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            FuzzyInterval(float("nan"), 1.0)


class TestMembership:
    """The figure-1 membership formula, exactly."""

    def test_core_membership_is_one(self):
        v = FuzzyInterval(1.0, 2.0, 0.5, 0.5)
        assert v.membership(1.0) == 1.0
        assert v.membership(1.5) == 1.0
        assert v.membership(2.0) == 1.0

    def test_left_slope_is_linear(self):
        v = FuzzyInterval(1.0, 2.0, 0.5, 0.5)
        # mu(x) = (x - m1 + alpha) / alpha on [m1-alpha, m1]
        assert v.membership(0.75) == pytest.approx(0.5)
        assert v.membership(0.5) == pytest.approx(0.0)

    def test_right_slope_is_linear(self):
        v = FuzzyInterval(1.0, 2.0, 0.5, 0.5)
        # mu(x) = (m2 + beta - x) / beta on [m2, m2+beta]
        assert v.membership(2.25) == pytest.approx(0.5)
        assert v.membership(2.5) == pytest.approx(0.0)

    def test_outside_support_is_zero(self):
        v = FuzzyInterval(1.0, 2.0, 0.5, 0.5)
        assert v.membership(0.0) == 0.0
        assert v.membership(3.0) == 0.0

    def test_crisp_interval_membership_is_indicator(self):
        v = FuzzyInterval.crisp_interval(1.0, 2.0)
        assert v.membership(0.999) == 0.0
        assert v.membership(1.0) == 1.0
        assert v.membership(2.0) == 1.0
        assert v.membership(2.001) == 0.0


class TestGeometry:
    def test_area_formula(self):
        v = FuzzyInterval(1.0, 3.0, 0.5, 1.5)
        assert v.area == pytest.approx((3.0 - 1.0) + 0.5 * (0.5 + 1.5))

    def test_crisp_point_has_zero_area(self):
        assert FuzzyInterval.crisp(7.0).area == 0.0

    def test_centroid_of_symmetric_trapezoid_is_centre(self):
        v = FuzzyInterval(1.0, 3.0, 1.0, 1.0)
        assert v.centroid == pytest.approx(2.0)

    def test_centroid_skews_toward_wider_slope(self):
        v = FuzzyInterval(0.0, 0.0, 0.0, 3.0)  # right triangle
        assert v.centroid == pytest.approx(1.0)

    def test_centroid_of_point_is_the_point(self):
        assert FuzzyInterval.crisp(5.0).centroid == 5.0

    def test_contains_nested(self):
        outer = FuzzyInterval(1.0, 3.0, 1.0, 1.0)
        inner = FuzzyInterval(1.5, 2.5, 0.2, 0.2)
        assert outer.contains(inner)
        assert not inner.contains(outer)

    def test_contains_requires_core_nesting(self):
        outer = FuzzyInterval(1.0, 1.5, 2.0, 2.0)
        inner = FuzzyInterval(0.5, 2.0, 0.0, 0.0)  # support nested, core wider
        assert not outer.contains(inner)


class TestArithmetic:
    """Bonissone/Decker rules quoted in the paper's section 3.2."""

    def test_addition_rule(self):
        m = FuzzyInterval(1.0, 2.0, 0.1, 0.2)
        n = FuzzyInterval(3.0, 5.0, 0.3, 0.4)
        s = m + n
        assert s.as_tuple() == pytest.approx((4.0, 7.0, 0.4, 0.6))

    def test_subtraction_rule(self):
        m = FuzzyInterval(1.0, 2.0, 0.1, 0.2)
        n = FuzzyInterval(3.0, 5.0, 0.3, 0.4)
        d = m - n
        # [m1-n2, m2-n1, alpha+beta', beta+alpha']
        assert d.as_tuple() == pytest.approx((-4.0, -1.0, 0.5, 0.5))

    def test_negation_mirrors(self):
        v = FuzzyInterval(1.0, 2.0, 0.1, 0.2)
        assert (-v).as_tuple() == pytest.approx((-2.0, -1.0, 0.2, 0.1))

    def test_scalar_coercion(self):
        v = FuzzyInterval(1.0, 2.0, 0.1, 0.2)
        assert (v + 1).core == (2.0, 3.0)
        assert (1 + v).core == (2.0, 3.0)
        assert (v - 1).core == (0.0, 1.0)
        assert (3 - v).core == (1.0, 2.0)

    def test_addition_commutes(self):
        m = FuzzyInterval(1.0, 2.0, 0.1, 0.2)
        n = FuzzyInterval(3.0, 5.0, 0.3, 0.4)
        assert is_close(m + n, n + m)

    def test_multiplication_positive_operands(self):
        m = FuzzyInterval(2.0, 3.0, 0.5, 0.5)
        n = FuzzyInterval(4.0, 5.0, 1.0, 1.0)
        p = m * n
        assert p.core == (8.0, 15.0)
        assert p.support == (pytest.approx(1.5 * 3.0), pytest.approx(3.5 * 6.0))

    def test_multiplication_handles_negative_operands(self):
        m = FuzzyInterval(-3.0, -2.0, 0.5, 0.5)
        n = FuzzyInterval(4.0, 5.0, 0.0, 0.0)
        p = m * n
        assert p.core == (-15.0, -8.0)
        assert p.support == (pytest.approx(-3.5 * 5.0), pytest.approx(-1.5 * 4.0))

    def test_multiplication_spanning_zero(self):
        m = FuzzyInterval(-1.0, 1.0, 0.5, 0.5)
        n = FuzzyInterval(2.0, 2.0, 0.0, 0.0)
        p = m * n
        assert p.core == (-2.0, 2.0)
        assert p.support == (-3.0, 3.0)

    def test_division(self):
        m = FuzzyInterval(8.0, 15.0, 0.0, 0.0)
        n = FuzzyInterval(4.0, 5.0, 0.0, 0.0)
        q = m / n
        assert q.core == (pytest.approx(8.0 / 5.0), pytest.approx(15.0 / 4.0))

    def test_division_by_zero_spanning_interval_raises(self):
        with pytest.raises(ZeroDivisionError):
            FuzzyInterval.crisp(1.0) / FuzzyInterval(-1.0, 1.0)

    def test_division_by_zero_support_raises(self):
        # Core excludes zero but support does not.
        with pytest.raises(ZeroDivisionError):
            FuzzyInterval.crisp(1.0) / FuzzyInterval(0.5, 1.0, 1.0, 0.0)

    def test_reciprocal_round_trip(self):
        n = FuzzyInterval(4.0, 5.0, 0.5, 0.5)
        r = FuzzyInterval.crisp(1.0) / n
        assert r.core == (pytest.approx(0.2), pytest.approx(0.25))

    def test_scale_positive(self):
        v = FuzzyInterval(1.0, 2.0, 0.1, 0.2).scale(10.0)
        assert v.as_tuple() == pytest.approx((10.0, 20.0, 1.0, 2.0))

    def test_scale_negative_mirrors(self):
        v = FuzzyInterval(1.0, 2.0, 0.1, 0.2).scale(-1.0)
        assert v.as_tuple() == pytest.approx((-2.0, -1.0, 0.2, 0.1))

    def test_apply_monotone_increasing(self):
        v = FuzzyInterval(1.0, 4.0, 0.75, 5.0)
        sq = v.apply_monotone(lambda x: x * x)
        assert sq.core == (1.0, 16.0)
        assert sq.support == (pytest.approx(0.0625), pytest.approx(81.0))

    def test_apply_monotone_decreasing(self):
        v = FuzzyInterval(1.0, 2.0, 0.5, 0.5)
        inv = v.apply_monotone(lambda x: 1.0 / x, increasing=False)
        assert inv.core == (0.5, 1.0)
        assert inv.support == (pytest.approx(0.4), pytest.approx(2.0))

    def test_apply_unimodal_includes_peak(self):
        # g(x) = -(x-1)^2 peaks at x=1 with value 0.
        v = FuzzyInterval(0.0, 2.0, 0.5, 0.5)
        img = v.apply_unimodal(lambda x: -((x - 1.0) ** 2), peak_x=1.0)
        assert img.core[1] == pytest.approx(0.0)
        assert img.support[0] == pytest.approx(-2.25)


class TestPaperFigure2:
    """The cascade example of section 4.2, literally."""

    AMP1 = FuzzyInterval(1.0, 1.0, 0.05, 0.05)
    AMP2 = FuzzyInterval(2.0, 2.0, 0.05, 0.05)
    AMP3 = FuzzyInterval(3.0, 3.0, 0.05, 0.05)

    def test_fuzzy_number_input_case(self):
        va = FuzzyInterval(3.0, 3.0, 0.05, 0.05)
        vb = va * self.AMP1
        vc = vb * self.AMP2
        vd = vb * self.AMP3
        assert vb.core == (3.0, 3.0)
        assert vb.alpha == pytest.approx(0.20, abs=0.005)
        assert vb.beta == pytest.approx(0.20, abs=0.005)
        assert vc.alpha == pytest.approx(0.54, abs=0.01)
        assert vc.beta == pytest.approx(0.57, abs=0.01)
        assert vd.alpha == pytest.approx(0.73, abs=0.01)
        assert vd.beta == pytest.approx(0.77, abs=0.01)

    def test_crisp_interval_input_case(self):
        va = FuzzyInterval.crisp_interval(2.95, 3.05)
        vb = va * self.AMP1
        assert vb.core == (2.95, 3.05)
        assert vb.alpha == pytest.approx(0.15, abs=0.005)
        assert vb.beta == pytest.approx(0.15, abs=0.005)
        vd = vb * self.AMP3
        assert vd.core == (pytest.approx(8.85), pytest.approx(9.15))
        assert vd.alpha == pytest.approx(0.58, abs=0.01)
        assert vd.beta == pytest.approx(0.62, abs=0.01)


class TestSetOperations:
    def test_overlap_detection(self):
        a = FuzzyInterval(1.0, 2.0, 0.5, 0.5)
        b = FuzzyInterval(3.0, 4.0, 0.6, 0.0)
        assert a.overlaps(b)  # 2.5 vs 2.4 — supports cross
        c = FuzzyInterval(4.0, 5.0, 0.5, 0.0)
        assert not a.overlaps(c)

    def test_intersection_area_identical(self):
        v = FuzzyInterval(1.0, 2.0, 0.5, 0.5)
        assert v.intersection_area(v) == pytest.approx(v.area)

    def test_intersection_area_disjoint_is_zero(self):
        a = FuzzyInterval(0.0, 1.0, 0.0, 0.0)
        b = FuzzyInterval(2.0, 3.0, 0.0, 0.0)
        assert a.intersection_area(b) == 0.0

    def test_intersection_area_nested(self):
        outer = FuzzyInterval(0.0, 10.0, 0.0, 0.0)
        inner = FuzzyInterval(4.0, 6.0, 1.0, 1.0)
        assert outer.intersection_area(inner) == pytest.approx(inner.area)

    def test_intersection_area_crisp_overlap(self):
        a = FuzzyInterval.crisp_interval(0.0, 2.0)
        b = FuzzyInterval.crisp_interval(1.0, 3.0)
        assert a.intersection_area(b) == pytest.approx(1.0)

    def test_intersection_area_sloped_overlap(self):
        # Two symmetric triangles centred at 0 and 2, each half-width 2:
        # min peaks at x=1 with membership 0.5; area = 2 * (0.5*1*0.5) = 0.5.
        a = FuzzyInterval(0.0, 0.0, 2.0, 2.0)
        b = FuzzyInterval(2.0, 2.0, 2.0, 2.0)
        assert a.intersection_area(b) == pytest.approx(0.5)

    def test_intersection_area_symmetric(self):
        a = FuzzyInterval(1.0, 2.0, 0.7, 0.3)
        b = FuzzyInterval(1.5, 3.0, 0.5, 0.9)
        assert a.intersection_area(b) == pytest.approx(b.intersection_area(a))

    def test_intersection_hull_of_overlapping_cores(self):
        a = FuzzyInterval(1.0, 3.0, 1.0, 1.0)
        b = FuzzyInterval(2.0, 4.0, 1.0, 1.0)
        h = a.intersection_hull(b)
        assert h.core == (2.0, 3.0)
        assert h.support == (1.0, 4.0)

    def test_intersection_hull_disjoint_is_none(self):
        a = FuzzyInterval(0.0, 1.0, 0.0, 0.0)
        b = FuzzyInterval(5.0, 6.0, 0.0, 0.0)
        assert a.intersection_hull(b) is None

    def test_intersection_hull_core_disjoint_peaks_at_crossing(self):
        a = FuzzyInterval(0.0, 0.0, 2.0, 2.0)
        b = FuzzyInterval(2.0, 2.0, 2.0, 2.0)
        h = a.intersection_hull(b)
        assert h is not None
        assert h.core[0] == pytest.approx(1.0)
        assert h.core[1] == pytest.approx(1.0)


class TestMisc:
    def test_hashable_and_equal(self):
        a = FuzzyInterval(1.0, 2.0, 0.1, 0.2)
        b = FuzzyInterval(1.0, 2.0, 0.1, 0.2)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_repr_is_compact(self):
        assert repr(FuzzyInterval(1.0, 2.0, 0.1, 0.2)) == "[1,2,0.1,0.2]"

    def test_type_error_on_weird_operand(self):
        with pytest.raises(TypeError):
            FuzzyInterval.crisp(1.0) + "three"
