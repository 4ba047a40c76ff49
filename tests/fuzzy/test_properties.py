"""Property-based tests (hypothesis) for the fuzzy-arithmetic invariants.

These pin down the algebra FLAMES relies on: commutativity/associativity
of the LR arithmetic, membership bounds, Dc bounds and
monotonicity, and entropy bounds.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.fuzzy import FuzzyInterval, consistency, possibility
from repro.fuzzy.entropy import entropy_term, fuzzy_entropy
from tests.helpers import is_close

_coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
_widths = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def fuzzy_intervals(draw, lo=-50.0, hi=50.0):
    m1 = draw(st.floats(min_value=lo, max_value=hi, allow_nan=False))
    m2 = draw(st.floats(min_value=m1, max_value=hi, allow_nan=False))
    alpha = draw(_widths)
    beta = draw(_widths)
    return FuzzyInterval(m1, m2, alpha, beta)


@st.composite
def positive_fuzzy_intervals(draw):
    m1 = draw(st.floats(min_value=0.5, max_value=50.0, allow_nan=False))
    m2 = draw(st.floats(min_value=m1, max_value=60.0, allow_nan=False))
    alpha = draw(st.floats(min_value=0.0, max_value=0.4, allow_nan=False))
    beta = draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    return FuzzyInterval(m1, m2, alpha, beta)


@st.composite
def unit_fuzzy_numbers(draw):
    m = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    alpha = draw(st.floats(min_value=0.0, max_value=0.2, allow_nan=False))
    beta = draw(st.floats(min_value=0.0, max_value=0.2, allow_nan=False))
    return FuzzyInterval(m, m, alpha, beta)


class TestArithmeticAlgebra:
    @given(fuzzy_intervals(), fuzzy_intervals())
    def test_addition_commutes(self, a, b):
        assert is_close(a + b, b + a, tol=1e-6)

    @given(fuzzy_intervals(), fuzzy_intervals(), fuzzy_intervals())
    def test_addition_associates(self, a, b, c):
        assert is_close((a + b) + c, a + (b + c), tol=1e-6)

    @given(fuzzy_intervals())
    def test_additive_identity(self, a):
        assert is_close(a + FuzzyInterval.crisp(0.0), a)

    @given(fuzzy_intervals())
    def test_double_negation(self, a):
        assert is_close(-(-a), a)

    @given(fuzzy_intervals(), fuzzy_intervals())
    def test_subtraction_is_addition_of_negation(self, a, b):
        assert is_close(a - b, a + (-b), tol=1e-6)

    @given(fuzzy_intervals(), fuzzy_intervals())
    def test_multiplication_commutes(self, a, b):
        assert is_close(a * b, b * a, tol=1e-6)

    @given(fuzzy_intervals())
    def test_multiplicative_identity(self, a):
        assert is_close(a * FuzzyInterval.crisp(1.0), a, tol=1e-9)

    @given(positive_fuzzy_intervals(), positive_fuzzy_intervals())
    def test_division_inverts_multiplication_core(self, a, b):
        """Core of (a*b)/b contains the core of a (interval arithmetic widens)."""
        q = (a * b) / b
        assert q.m1 <= a.m1 + 1e-6
        assert q.m2 >= a.m2 - 1e-6

    @given(fuzzy_intervals(), st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
    def test_scale_matches_crisp_multiplication(self, a, k):
        assert is_close(a.scale(k), a * FuzzyInterval.crisp(k), tol=1e-6)

    @given(fuzzy_intervals(), fuzzy_intervals())
    def test_sum_support_is_minkowski(self, a, b):
        s = a + b
        assert math.isclose(s.support[0], a.support[0] + b.support[0], rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(s.support[1], a.support[1] + b.support[1], rel_tol=1e-9, abs_tol=1e-9)


def _bits(fi):
    """The exact field bits (``-0.0`` and ``0.0`` differ)."""
    return tuple(float(x).hex() for x in fi.as_tuple())


#: Mixed-magnitude operands: signed zeros, zero and sub-_EPS slopes.
_any_coords = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 5e-324]),
)
_any_widths = st.one_of(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    st.sampled_from([0.0, 1e-13, 5e-324]),
)


@st.composite
def any_fuzzy_intervals(draw):
    a, b = sorted((draw(_any_coords), draw(_any_coords)))
    return FuzzyInterval(a, b, draw(_any_widths), draw(_any_widths))


class TestResultsAreNormal:
    """Every operation on valid operands returns an already-normal interval.

    ``__post_init__`` writes a field only to normalise it, so rebuilding a
    result from its own fields must change no bit: that is what lets the
    fused projections skip intermediate intervals.
    """

    @staticmethod
    def _assert_normal(result):
        rebuilt = FuzzyInterval(*result.as_tuple())
        assert rebuilt == result
        assert _bits(rebuilt) == _bits(result)

    @given(any_fuzzy_intervals(), any_fuzzy_intervals())
    def test_sum_and_difference(self, a, b):
        self._assert_normal(a + b)
        self._assert_normal(a - b)

    @given(any_fuzzy_intervals(), st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    def test_scale(self, a, k):
        self._assert_normal(a.scale(k))

    @given(any_fuzzy_intervals(), any_fuzzy_intervals())
    def test_product_and_quotient(self, a, b):
        self._assert_normal(a * b)
        try:
            quotient = a / b
        except ZeroDivisionError:
            return
        self._assert_normal(quotient)

    @given(any_fuzzy_intervals(), any_fuzzy_intervals())
    def test_hulls(self, a, b):
        meet = a.intersection_hull(b)
        if meet is not None:
            self._assert_normal(meet)


class TestShapeInvariants:
    @given(fuzzy_intervals())
    def test_support_contains_core(self, a):
        assert a.support[0] <= a.core[0] <= a.core[1] <= a.support[1]

    @given(fuzzy_intervals(), st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
    def test_membership_in_unit_interval(self, a, x):
        assert 0.0 <= a.membership(x) <= 1.0

    @given(fuzzy_intervals())
    def test_area_non_negative(self, a):
        assert a.area >= 0.0

    @given(fuzzy_intervals())
    def test_centroid_within_support(self, a):
        lo, hi = a.support
        assert lo - 1e-9 <= a.centroid <= hi + 1e-9


class TestConsistencyProperties:
    @given(fuzzy_intervals(), fuzzy_intervals())
    def test_degree_in_unit_interval(self, vm, vn):
        c = consistency(vm, vn)
        assert 0.0 <= c.degree <= 1.0

    @given(fuzzy_intervals(lo=-5.0, hi=5.0))
    def test_included_measurement_fully_consistent(self, vn):
        # Shrink the nominal value to build a measurement it must contain.
        vm = FuzzyInterval.from_support_core(
            vn.support, (0.5 * (vn.m1 + vn.m2), 0.5 * (vn.m1 + vn.m2))
        )
        assert consistency(vm, vn).degree == 1.0

    @given(fuzzy_intervals())
    def test_self_consistency(self, v):
        assert consistency(v, v).degree == 1.0

    @given(fuzzy_intervals(), fuzzy_intervals())
    def test_disjoint_supports_zero_degree(self, vm, vn):
        assume(not vm.overlaps(vn))
        c = consistency(vm, vn)
        assert c.degree == 0.0
        assert c.direction != 0

    @given(fuzzy_intervals(), fuzzy_intervals())
    def test_intersection_area_symmetric(self, a, b):
        left = a.intersection_area(b)
        right = b.intersection_area(a)
        assert math.isclose(left, right, rel_tol=1e-6, abs_tol=1e-6)

    @given(fuzzy_intervals(), fuzzy_intervals())
    def test_intersection_area_bounded(self, a, b):
        inter = a.intersection_area(b)
        assert inter <= min(a.area, b.area) + 1e-6

    @given(fuzzy_intervals(), fuzzy_intervals())
    def test_possibility_bounds(self, a, b):
        assert 0.0 <= possibility(a, b) <= 1.0

    @given(fuzzy_intervals(), fuzzy_intervals())
    @settings(max_examples=50)
    def test_possibility_dominates_sampled_min(self, a, b):
        pi = possibility(a, b)
        lo = min(a.support[0], b.support[0])
        hi = max(a.support[1], b.support[1])
        if hi == lo:
            return
        for i in range(40):
            x = lo + (hi - lo) * i / 39.0
            assert min(a.membership(x), b.membership(x)) <= pi + 1e-6


class TestEntropyProperties:
    @given(st.lists(unit_fuzzy_numbers(), max_size=6))
    def test_entropy_support_non_negative(self, estimations):
        ent = fuzzy_entropy(estimations)
        assert ent.support[0] >= -1e-9

    @given(unit_fuzzy_numbers())
    def test_entropy_term_bounded_by_peak(self, fi):
        peak = -(1 / math.e) * math.log2(1 / math.e)
        term = entropy_term(fi)
        assert term.support[1] <= peak + 1e-9

    @given(st.lists(unit_fuzzy_numbers(), min_size=1, max_size=5))
    def test_entropy_grows_with_extra_uncertain_component(self, estimations):
        base = fuzzy_entropy(estimations)
        more = fuzzy_entropy(estimations + [FuzzyInterval.crisp(0.5)])
        assert more.centroid >= base.centroid - 1e-9
