"""Tests for the conflict-recognition engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coincidence import classify
from repro.core.conflicts import MIN_CONFLICT_DEGREE, recognize
from repro.core.values import FuzzyValue
from repro.fuzzy import FuzzyInterval


def val(interval, env=(), source="model"):
    return FuzzyValue(interval, frozenset(env), source)


class TestRecognition:
    def test_no_conflict_on_corroboration(self):
        v = val(FuzzyInterval(1.0, 2.0, 0.1, 0.1))
        assert recognize("x", v, v) is None

    def test_no_conflict_on_refinement(self):
        inner = val(FuzzyInterval(1.4, 1.6), env={"a"})
        outer = val(FuzzyInterval(1.0, 2.0), env={"b"})
        assert recognize("x", inner, outer) is None

    def test_total_conflict(self):
        a = val(FuzzyInterval.crisp(0.0), env={"a"})
        b = val(FuzzyInterval.crisp(5.0), env={"b"})
        conflict = recognize("x", a, b)
        assert conflict is not None
        assert conflict.degree == pytest.approx(1.0)
        assert conflict.environment == frozenset({"a", "b"})
        assert conflict.direction == -1

    def test_partial_conflict_degree(self):
        """The paper's diode example: 105 uA against [-1, 100, 0, 10] uA."""
        measured = val(FuzzyInterval.crisp(105e-6), source="measurement")
        bound = val(FuzzyInterval(-1e-6, 100e-6, 0.0, 10e-6), env={"d1"})
        conflict = recognize("I(d1)", measured, bound)
        assert conflict.degree == pytest.approx(0.5)
        assert conflict.environment == frozenset({"d1"})

    def test_tiny_conflicts_filtered(self):
        a = val(FuzzyInterval(0.0, 1.0, 0.0, 1e-9))
        b = val(FuzzyInterval(-1e-12, 1.0 + 1e-12), env={"b"})
        # Essentially identical intervals: below the noise floor.
        conflict = recognize("x", a, b)
        assert conflict is None or conflict.degree < 0.01

    def test_overlapping_environments_not_compared(self):
        """Values sharing an assumption double-count its tolerance; the
        coincidence-resolution principle skips the direct comparison."""
        a = val(FuzzyInterval.crisp(0.0), env={"a", "shared"})
        b = val(FuzzyInterval.crisp(5.0), env={"b", "shared"})
        assert recognize("x", a, b) is None

    def test_empty_environment_conflict_reported(self):
        """Two contradictory measurements still surface (data problem)."""
        a = val(FuzzyInterval.crisp(0.0), source="measurement")
        b = val(FuzzyInterval.crisp(5.0), source="measurement")
        conflict = recognize("x", a, b)
        assert conflict is not None
        assert conflict.environment == frozenset()

    def test_variable_recorded(self):
        a = val(FuzzyInterval.crisp(0.0), env={"a"})
        b = val(FuzzyInterval.crisp(5.0), env={"b"})
        assert recognize("V(n1)", a, b).variable == "V(n1)"

    def test_repr_mentions_components(self):
        a = val(FuzzyInterval.crisp(0.0), env={"a"})
        b = val(FuzzyInterval.crisp(5.0), env={"b"})
        text = repr(recognize("x", a, b))
        assert "a" in text and "b" in text


_coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
_spreads = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False),
)


@st.composite
def intervals(draw):
    m1 = draw(_coords)
    m2 = draw(st.floats(min_value=m1, max_value=1e6, allow_nan=False))
    return FuzzyInterval(m1, m2, draw(_spreads), draw(_spreads))


class TestConflictDegreeRange:
    """Values carry no degree, so nothing clamps the conflict degree at
    recognition time: the coincidence itself must keep it in [0, 1]."""

    @given(intervals(), intervals())
    @settings(max_examples=400, deadline=None)
    def test_coincidence_degree_in_unit_interval(self, a, b):
        assert 0.0 <= classify(a, b).conflict_degree <= 1.0

    @given(intervals(), intervals())
    @settings(max_examples=400, deadline=None)
    def test_recognized_degree_is_the_coincidence_degree(self, a, b):
        raw = classify(a, b).conflict_degree
        conflict = recognize("x", val(a, env={"a"}), val(b, env={"b"}))
        if conflict is None:
            assert raw <= MIN_CONFLICT_DEGREE
        else:
            assert conflict.degree == raw
