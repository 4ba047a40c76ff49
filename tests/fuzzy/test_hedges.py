"""Tests for linguistic hedges."""

import pytest

from repro.fuzzy.hedges import about


class TestAbout:
    def test_spread_scales_with_magnitude(self):
        assert about(100.0).alpha == pytest.approx(10.0)
        assert about(1.0).alpha == pytest.approx(0.1)

    def test_zero_gets_absolute_spread(self):
        assert about(0.0).width > 0.0

    def test_membership_peaks_at_value(self):
        assert about(6.0).membership(6.0) == 1.0

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            about(1.0, spread_fraction=0.0)
