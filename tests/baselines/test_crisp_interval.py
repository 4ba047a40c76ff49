"""Tests for the crisp interval baseline arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines import Interval
from repro.fuzzy import FuzzyInterval


class TestConstruction:
    def test_point(self):
        assert Interval.point(3.0) == Interval(3.0, 3.0)

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)

    def test_fuzzy_round_trip(self):
        crisp = Interval(0.5, 2.5)
        assert crisp.to_fuzzy() == FuzzyInterval.crisp_interval(0.5, 2.5)


class TestArithmetic:
    def test_add(self):
        assert Interval(1, 2) + Interval(3, 4) == Interval(4, 6)

    def test_sub(self):
        assert Interval(1, 2) - Interval(3, 4) == Interval(-3, -1)

    def test_neg(self):
        assert -Interval(1, 2) == Interval(-2, -1)

    def test_mul_mixed_signs(self):
        assert Interval(-2, 3) * Interval(4, 5) == Interval(-10, 15)

    def test_div(self):
        assert Interval(8, 15) / Interval(4, 5) == Interval(8 / 5, 15 / 4)

    def test_div_by_zero_interval(self):
        with pytest.raises(ZeroDivisionError):
            Interval(1, 2) / Interval(-1, 1)

    def test_scalar_coercion(self):
        assert Interval(1, 2) + 1 == Interval(2, 3)
        assert 3 - Interval(1, 2) == Interval(1, 2)
        assert 2 * Interval(1, 2) == Interval(2, 4)
        assert 6 / Interval(2, 3) == Interval(2, 3)

    def test_type_error(self):
        with pytest.raises(TypeError):
            Interval(1, 2) + "x"


class TestSetOperations:
    def test_paper_figure2_crisp_row(self):
        """Crisp propagation Vb = Va * [0.95, 1.05] = [2.8, 3.2]."""
        va = Interval(2.95, 3.05)
        amp1 = Interval(0.95, 1.05)
        vb = va * amp1
        assert vb.lo == pytest.approx(2.8025)
        assert vb.hi == pytest.approx(3.2025)


_bounds = st.floats(min_value=-100, max_value=100, allow_nan=False)


@st.composite
def intervals(draw):
    lo = draw(_bounds)
    hi = draw(st.floats(min_value=lo, max_value=101, allow_nan=False))
    return Interval(lo, hi)


def midpoint(interval):
    return 0.5 * (interval.lo + interval.hi)


class TestProperties:
    @given(intervals(), intervals())
    def test_addition_encloses_pointwise(self, a, b):
        s = a + b
        assert s.lo <= midpoint(a) + midpoint(b) <= s.hi

    @given(intervals(), intervals())
    def test_multiplication_encloses_pointwise(self, a, b):
        p = a * b
        for x in (a.lo, midpoint(a), a.hi):
            for y in (b.lo, midpoint(b), b.hi):
                assert p.lo - 1e-6 <= x * y <= p.hi + 1e-6

