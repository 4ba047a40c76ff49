"""The measurement sanitizer."""

import math

import pytest

from repro.fuzzy import FuzzyInterval
from repro.resilience.sanitize import sanitize_tuples


class TestSanitizeTuples:
    def test_clean_inputs_pass_through_verbatim(self):
        raw = [("V(mid)", 5.9, 6.1, 0.02, 0.02)]
        survivors, report = sanitize_tuples(raw)
        assert survivors == raw
        assert not report.degraded

    def test_non_finite_dropped(self):
        survivors, report = sanitize_tuples(
            [
                ("V(a)", float("nan"), float("nan"), 0.02, 0.02),
                ("V(b)", float("inf"), float("inf"), 0.02, 0.02),
                ("V(c)", 6.0, 6.0, 0.02, 0.02),
            ]
        )
        assert [s[0] for s in survivors] == ["V(c)"]
        assert report.dropped == ["V(a)", "V(b)"]
        assert all(a.action == "dropped" for a in report.actions)

    def test_absurd_magnitude_dropped(self):
        survivors, report = sanitize_tuples([("V(a)", 1e12, 1e12, 0.02, 0.02)])
        assert survivors == []
        assert "beyond" in report.actions[0].reason

    def test_out_of_range_widened_support_still_covers(self):
        raw = [("V(a)", 2e6, 2e6, 0.1, 0.1)]
        survivors, report = sanitize_tuples(raw)
        assert report.widened == ["V(a)"]
        point, m1, m2, alpha, beta = survivors[0]
        assert abs(m1) <= 1e6 and abs(m2) <= 1e6
        # The widened support still covers the original claim.
        assert m1 - alpha <= 2e6 - 0.1
        assert m2 + beta >= 2e6 + 0.1
        # And the result is a valid, finite interval.
        FuzzyInterval(m1, m2, alpha, beta)

    def test_inverted_core_and_negative_slopes_dropped(self):
        survivors, report = sanitize_tuples(
            [("V(a)", 6.0, 5.0, 0.02, 0.02), ("V(b)", 6.0, 6.0, -0.1, 0.02)]
        )
        assert survivors == []
        assert len(report.actions) == 2

    def test_non_numeric_dropped(self):
        survivors, report = sanitize_tuples([("V(a)", "twelve", 6.0, 0.02, 0.02)])
        assert survivors == []
        assert "non-numeric" in report.actions[0].reason

    def test_report_dict_is_json_safe(self):
        import json

        _, report = sanitize_tuples([("V(a)", float("nan"), 1.0, 0.0, 0.0)])
        json.dumps(report.to_dict())
        assert report.to_dict()["policy"] == "repair"


class TestStrictBoundary:
    def test_interval_rejects_non_finite(self):
        # The strict boundary: a glitched reading can't even be built.
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                FuzzyInterval(bad, bad, 0.02, 0.02)
        with pytest.raises(ValueError):
            FuzzyInterval(6.0, 6.0, float("inf"), 0.02)
        assert math.isfinite(FuzzyInterval(6.0, 6.0, 0.02, 0.02).m1)
