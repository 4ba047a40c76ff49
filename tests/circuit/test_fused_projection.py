"""The fused constraint projections are bit-identical to the chained forms.

``LinearConstraint.project`` and the ``k * y`` directions of
``ScaledDifferenceConstraint.project`` run the interval arithmetic on
plain floats and build one validated interval at the end.  These
properties pin them to the chained ``FuzzyInterval`` expressions they
replace, field bit for field bit, including the overflow cases that
both must reject with ``ValueError``.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuit.constraints import (
    LinearConstraint,
    ScaledDifferenceConstraint,
    Variable,
)
from repro.fuzzy import FuzzyInterval

_coords = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 5e-324]),
)
_widths = st.one_of(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    st.sampled_from([0.0, 1e-13, 5e-324]),
)
_huge = st.floats(min_value=1e300, max_value=1.7e308) | st.floats(
    min_value=-1.7e308, max_value=-1e300
)
_coefficients = st.one_of(
    st.sampled_from([1.0, -1.0, 2.0, -0.5]),
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=-1e6, max_value=-1e-6),
)


@st.composite
def intervals(draw, coords=_coords, widths=_widths):
    lo, hi = sorted((draw(coords), draw(coords)))
    return FuzzyInterval(lo, hi, draw(widths), draw(widths))


_near_overflow = intervals(coords=_huge | _coords, widths=_widths | _huge.map(abs))


def _bits(fi):
    return tuple(float(x).hex() for x in fi.as_tuple())


def _outcome(project):
    """Field bits of the result, ``None``, or the exception type raised."""
    try:
        result = project()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__
    return None if result is None else _bits(result)


def chained_linear(constraint, target, values):
    """The pre-fusion ``LinearConstraint.project``."""
    acc = constraint.rhs
    for name, c in constraint.terms.items():
        if name != target.name:
            acc = acc - values[name].scale(c)
    return acc.scale(1.0 / constraint.terms[target.name])


def chained_scaled(constraint, target, values):
    """The pre-fusion ``ScaledDifferenceConstraint.project``."""

    def xm():
        if constraint.x_minus is None:
            return FuzzyInterval.crisp(0.0)
        return values[constraint.x_minus.name]

    x_plus, x_minus, y, k = constraint.x_plus, constraint.x_minus, constraint.y, constraint.k
    if x_minus and target.name == x_minus.name:
        return values[x_plus.name] - k * values[y.name]
    if target.name == x_plus.name:
        return xm() + k * values[y.name]
    k_lo, k_hi = k.support
    if k_lo <= 0.0 <= k_hi:
        return None
    return (values[x_plus.name] - xm()) / k


def _assert_linear_fused(coefficients, rhs, operands):
    variables = [Variable(f"x{i}", "voltage") for i in range(len(coefficients))]
    constraint = LinearConstraint("lin", dict(zip(variables, coefficients)), rhs)
    values = {v.name: x for v, x in zip(variables, operands)}
    for target in variables:
        others = {n: x for n, x in values.items() if n != target.name}
        assert _outcome(lambda: constraint.project(target, others)) == _outcome(
            lambda: chained_linear(constraint, target, others)
        )


def _assert_scaled_fused(k, with_minus, operands):
    x_plus, x_minus, y = (Variable(n, "voltage") for n in ("xp", "xm", "y"))
    constraint = ScaledDifferenceConstraint(
        "sd", x_plus, x_minus if with_minus else None, y, k
    )
    values = dict(zip(("xp", "xm", "y"), operands))
    for target in constraint.variables:
        others = {n: x for n, x in values.items() if n != target.name}
        assert _outcome(lambda: constraint.project(target, others)) == _outcome(
            lambda: chained_scaled(constraint, target, others)
        )


class TestLinearFusion:
    @given(
        st.lists(_coefficients, min_size=1, max_size=5).flatmap(
            lambda cs: st.tuples(
                st.just(cs), intervals(), st.lists(intervals(), min_size=len(cs), max_size=len(cs))
            )
        )
    )
    def test_every_target_matches_chain(self, case):
        _assert_linear_fused(*case)

    @given(
        st.lists(_coefficients, min_size=1, max_size=4).flatmap(
            lambda cs: st.tuples(
                st.just(cs),
                _near_overflow,
                st.lists(_near_overflow, min_size=len(cs), max_size=len(cs)),
            )
        )
    )
    def test_near_overflow_matches_chain(self, case):
        _assert_linear_fused(*case)

    def test_overflow_raises_on_both_paths(self):
        x, y = Variable("x", "voltage"), Variable("y", "voltage")
        constraint = LinearConstraint("sum", {x: 1.0, y: 1.0}, FuzzyInterval.crisp(-1e308))
        values = {"x": FuzzyInterval.crisp(1e308)}
        with pytest.raises(ValueError):
            constraint.project(y, values)
        with pytest.raises(ValueError):
            chained_linear(constraint, y, values)


class TestScaledDifferenceFusion:
    @given(intervals(), st.booleans(), st.tuples(intervals(), intervals(), intervals()))
    def test_every_target_matches_chain(self, k, with_minus, operands):
        _assert_scaled_fused(k, with_minus, operands)

    @given(
        _near_overflow,
        st.booleans(),
        st.tuples(_near_overflow, _near_overflow, _near_overflow),
    )
    def test_near_overflow_matches_chain(self, k, with_minus, operands):
        _assert_scaled_fused(k, with_minus, operands)

    def test_overflow_raises_on_both_paths(self):
        x_plus, y = Variable("out", "voltage"), Variable("in", "voltage")
        constraint = ScaledDifferenceConstraint(
            "gain", x_plus, None, y, FuzzyInterval.number(1e300, 0.0)
        )
        values = {"in": FuzzyInterval.crisp(1e300)}
        with pytest.raises(ValueError):
            constraint.project(x_plus, values)
        with pytest.raises(ValueError):
            chained_scaled(constraint, x_plus, values)
