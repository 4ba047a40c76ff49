"""Tests for the ATMS growth study."""

import pytest

from repro.experiments import atms_growth
from repro.experiments.atms_growth import format_atms_growth, run_atms_growth


@pytest.fixture(scope="module")
def rows():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(atms_growth, "CONFLICT_COUNTS", (2, 4, 6, 8))
        return run_atms_growth()


class TestGrowth:
    def test_nogood_list_linear(self, rows):
        assert [r.nogoods for r in rows] == [2, 4, 6, 8]

    def test_diagnoses_exponential(self, rows):
        assert [r.diagnoses_all for r in rows] == [4, 16, 64, 256]

    def test_threshold_restricts_explosion(self, rows):
        """The paper: the sorted weighted list 'restricts the effect of
        explosion' — only the serious conflicts demand explanation."""
        for row in rows:
            assert row.diagnoses_serious == 2 ** (row.conflicts // 2)
            assert row.diagnoses_serious < row.diagnoses_all

    def test_interpretations_grow(self, rows):
        counts = [r.interpretations for r in rows]
        assert counts == sorted(counts)
        assert counts[-1] > counts[0]

    def test_format(self, rows):
        assert "interpretations" in format_atms_growth(rows)
