"""Comparing fuzzy values: degree of consistency ``Dc`` and related measures.

The conflict-recognition engine of FLAMES evaluates every *coincidence*
(a measured or propagated value meeting a predicted one) through the
degree of consistency

    ``Dc = area(Vm intersect Vn) / area(Vm)``

which is 1 when the measured value ``Vm`` is included in the nominal
``Vn``, 0 when they are disjoint, and strictly between otherwise
(paper section 6.1.2).  Figure 7 additionally reports a *signed* Dc
(``-1`` for a total conflict where the measurement sits below the
nominal value); the running text only sketches that convention, so we
expose the full ``(degree, direction)`` pair and derive the scalar view
from it — see DESIGN.md section 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fuzzy.interval import FuzzyInterval

__all__ = ["Consistency", "consistency", "possibility", "rank_key"]

_EPS = 1e-12


@dataclass(frozen=True)
class Consistency:
    """Result of comparing a measured value against a nominal one.

    Attributes:
        degree: the paper's ``Dc`` in [0, 1] — 1 means the measurement is
            fully consistent with (included in) the nominal value.
        direction: where the measurement sits relative to the nominal
            value: ``-1`` below, ``+1`` above, ``0`` aligned.  The
            direction is meaningful even for partial conflicts and is what
            lets figure 7 conclude "R2 is very low or R3 is very high"
            from the sign alone.
    """

    degree: float
    direction: int

    @property
    def signed(self) -> float:
        """Scalar view matching the numbers figure 7 prints.

        Overlapping values report ``degree``; totally disjoint values
        report ``+/-1`` with the sign giving the deviation direction.
        """
        if self.degree > 0.0:
            return self.degree
        return float(self.direction) if self.direction else 0.0


def consistency(measured: FuzzyInterval, nominal: FuzzyInterval) -> Consistency:
    """Degree of consistency of ``measured`` with ``nominal``.

    ``Dc = area(Vm intersect Vn) / area(Vm)``.  Two degenerate cases keep
    the definition total:

    * a crisp *point* measurement has zero area; its degree is the
      nominal membership at that point (the possibilistic limit);
    * if both operands are points, the degree is 1 when they coincide.
    """
    direction = _direction(measured, nominal)
    if nominal.contains(measured):
        return Consistency(1.0, direction)
    m_area = measured.area
    if m_area <= _EPS:
        point = 0.5 * (measured.m1 + measured.m2)
        return Consistency(nominal.membership(point), direction)
    if nominal.area <= _EPS:
        # Nominal is a crisp point: consistent exactly to the measured
        # membership at that point (symmetric possibilistic fallback).
        point = 0.5 * (nominal.m1 + nominal.m2)
        return Consistency(measured.membership(point), direction)
    degree = measured.intersection_area(nominal) / m_area
    return Consistency(min(max(degree, 0.0), 1.0), direction)


def possibility(a: FuzzyInterval, b: FuzzyInterval) -> float:
    """Possibility ``Pi(a, b) = sup_x min(mu_a(x), mu_b(x))``.

    1 when the cores intersect, 0 when the supports are disjoint; for
    trapezoids the supremum is attained where the facing slopes cross.
    """
    if not a.overlaps(b):
        return 0.0
    if max(a.m1, b.m1) <= min(a.m2, b.m2) + _EPS:
        return 1.0
    # Cores disjoint: evaluate at the crossing of the two facing slopes.
    if a.m2 < b.m1:
        left, right = a, b
    else:
        left, right = b, a
    # Falling slope of `left`: mu = (left.m2 + left.beta - x)/left.beta
    # Rising slope of `right`: mu = (x - right.m1 + right.alpha)/right.alpha
    if left.beta <= _EPS:
        return right.membership(left.m2)
    if right.alpha <= _EPS:
        return left.membership(right.m1)
    x = (
        right.alpha * (left.m2 + left.beta) + left.beta * (right.m1 - right.alpha)
    ) / (left.beta + right.alpha)
    return max(0.0, min(left.membership(x), right.membership(x)))


def rank_key(value: FuzzyInterval) -> tuple:
    """Total-order key for ranking fuzzy quantities (e.g. expected entropies).

    Primary key is the centroid (centre-of-gravity defuzzification, the
    standard choice); ties break on the core midpoint then the support
    width so the ordering is deterministic.
    """
    return (value.centroid, 0.5 * (value.m1 + value.m2), value.width)


def _direction(measured: FuzzyInterval, nominal: FuzzyInterval) -> int:
    """-1/0/+1 location of the measurement relative to the nominal value."""
    if nominal.contains(measured):
        return 0
    m_lo, m_hi = measured.support
    n_lo, n_hi = nominal.support
    if m_hi < n_lo - _EPS:
        return -1
    if m_lo > n_hi + _EPS:
        return 1
    delta = measured.centroid - nominal.centroid
    if abs(delta) <= _EPS:
        return 0
    return -1 if delta < 0 else 1
