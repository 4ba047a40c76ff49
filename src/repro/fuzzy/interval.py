"""Trapezoidal fuzzy intervals (the paper's figure 1).

A fuzzy interval is stored as the 4-tuple ``[m1, m2, alpha, beta]``:

* ``[m1, m2]`` is the *core* (membership 1),
* ``alpha`` is the width of the left slope (support reaches ``m1 - alpha``),
* ``beta`` is the width of the right slope (support reaches ``m2 + beta``).

This uniformly encodes

* a crisp number ``m``        as ``[m, m, 0, 0]``,
* a crisp interval ``[a, b]`` as ``[a, b, 0, 0]``,
* a fuzzy number ``m``        as ``[m, m, alpha, beta]``,
* a fuzzy interval            as the general 4-tuple,

which is exactly the representation FLAMES propagates through circuit
constraints.

Arithmetic follows the Bonissone/Decker LR rules quoted in the paper
(addition and subtraction are exact for trapezoids); multiplication,
division and general monotone function application use the alpha-cut
method, exact at the 0- and 1-cuts and linear in between, which is the
standard trapezoidal approximation and is valid for operands of any
sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Tuple

__all__ = ["FuzzyInterval"]

#: Absolute tolerance used for degeneracy checks (zero-width slopes etc.).
_EPS = 1e-12


def _interval_mul(a: Tuple[float, float], b: Tuple[float, float]) -> Tuple[float, float]:
    """Exact product of two crisp intervals."""
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(products), max(products)


def _interval_div(a: Tuple[float, float], b: Tuple[float, float]) -> Tuple[float, float]:
    """Exact quotient of two crisp intervals; ``b`` must exclude zero."""
    if b[0] <= 0.0 <= b[1]:
        raise ZeroDivisionError("fuzzy division by an interval containing zero")
    quotients = (a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1])
    if not all(math.isfinite(q) for q in quotients):
        # A denormal-small divisor overflows the quotient; treat it the
        # same as dividing by zero so results stay finite intervals.
        raise ZeroDivisionError("fuzzy division by an interval touching zero")
    return min(quotients), max(quotients)


@dataclass(frozen=True)
class FuzzyInterval:
    """A trapezoidal fuzzy interval ``[m1, m2, alpha, beta]``.

    Instances are immutable and hashable, so they can serve as ATMS node
    values and as parts of the propagation engine's dedup fingerprints.
    Every construction is validated (finite, ordered core, non-negative
    slopes); arithmetic on valid operands yields valid results.
    """

    m1: float
    m2: float
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self) -> None:
        m1, m2, alpha, beta = self.m1, self.m2, self.alpha, self.beta
        isfinite = math.isfinite
        if not (isfinite(m1) and isfinite(m2)):
            raise ValueError("fuzzy interval core must be finite")
        if not (isfinite(alpha) and isfinite(beta)):
            raise ValueError("fuzzy interval slope widths must be finite")
        if m1 > m2 + _EPS:
            raise ValueError(f"inverted core [{m1}, {m2}]")
        if alpha < -_EPS or beta < -_EPS:
            raise ValueError("slope widths must be non-negative")
        # Normalise tiny negative noise from float arithmetic.  Only the
        # fields that need it are written: most intervals are already
        # normal, and a frozen dataclass write is not free.
        if alpha < 0.0:
            object.__setattr__(self, "alpha", 0.0)
        if beta < 0.0:
            object.__setattr__(self, "beta", 0.0)
        if m1 > m2:  # within _EPS; collapse
            mid = 0.5 * (m1 + m2)
            object.__setattr__(self, "m1", mid)
            object.__setattr__(self, "m2", mid)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def crisp(cls, value: float) -> "FuzzyInterval":
        """A crisp real number ``[m, m, 0, 0]``."""
        return cls(value, value, 0.0, 0.0)

    @classmethod
    def crisp_interval(cls, low: float, high: float) -> "FuzzyInterval":
        """A crisp interval ``[a, b, 0, 0]``."""
        return cls(low, high, 0.0, 0.0)

    @classmethod
    def number(cls, value: float, alpha: float) -> "FuzzyInterval":
        """A symmetric fuzzy number ``[m, m, alpha, alpha]``."""
        return cls(value, value, alpha, alpha)

    @classmethod
    def from_support_core(
        cls, support: Tuple[float, float], core: Tuple[float, float]
    ) -> "FuzzyInterval":
        """Build from explicit support and core intervals (core within support)."""
        (s_lo, s_hi), (c_lo, c_hi) = support, core
        if not (s_lo <= c_lo + _EPS and c_hi <= s_hi + _EPS and c_lo <= c_hi + _EPS):
            raise ValueError(f"core {core} must lie within support {support}")
        c_lo = max(c_lo, s_lo)
        c_hi = min(max(c_hi, c_lo), s_hi)
        return cls(c_lo, c_hi, c_lo - s_lo, s_hi - c_hi)

    @classmethod
    def around(cls, value: float, tolerance: float) -> "FuzzyInterval":
        """A fuzzy number for ``value`` with relative ``tolerance`` as slope width.

        ``around(100, 0.05)`` models a nominally 100-valued component with a
        5 % soft tolerance — the typical way FLAMES encodes datasheet
        tolerances.
        """
        spread = abs(value) * tolerance
        return cls(value, value, spread, spread)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def support(self) -> Tuple[float, float]:
        """The closure of ``{x : mu(x) > 0}``."""
        return (self.m1 - self.alpha, self.m2 + self.beta)

    @property
    def core(self) -> Tuple[float, float]:
        """The set ``{x : mu(x) == 1}``."""
        return (self.m1, self.m2)

    @property
    def width(self) -> float:
        """Width of the support (the same float operations as :attr:`support`)."""
        return (self.m2 + self.beta) - (self.m1 - self.alpha)

    @property
    def area(self) -> float:
        """Area under the membership function: ``(m2-m1) + (alpha+beta)/2``.

        This is the denominator of the paper's degree of consistency
        ``Dc = area(Vm intersect Vn) / area(Vm)``.
        """
        return (self.m2 - self.m1) + 0.5 * (self.alpha + self.beta)

    @property
    def centroid(self) -> float:
        """Centre of gravity of the membership function.

        For a degenerate (zero-area) interval this is the midpoint of the
        core, which is the natural limit.
        """
        if self.area <= _EPS:
            return 0.5 * (self.m1 + self.m2)
        s_lo, s_hi = self.support
        # Decompose into left triangle, core rectangle, right triangle.
        pieces = (
            (self.alpha / 2.0, s_lo + 2.0 * self.alpha / 3.0),
            (self.m2 - self.m1, 0.5 * (self.m1 + self.m2)),
            (self.beta / 2.0, self.m2 + self.beta / 3.0),
        )
        total = sum(a for a, _ in pieces)
        return sum(a * c for a, c in pieces) / total

    def membership(self, x: float) -> float:
        """Membership degree ``mu(x)`` of a real ``x`` (figure 1's formula)."""
        if x < self.m1:
            if self.alpha == 0.0:
                return 0.0
            return max(0.0, (x - self.m1 + self.alpha) / self.alpha)
        if x > self.m2:
            if self.beta == 0.0:
                return 0.0
            return max(0.0, (self.m2 + self.beta - x) / self.beta)
        return 1.0

    def contains(self, other: "FuzzyInterval") -> bool:
        """Fuzzy-set inclusion: ``other``'s membership never exceeds ours.

        For trapezoids this holds iff both the support and the core of
        ``other`` are nested in ours *and* the slopes do not cross, which
        reduces to cut containment at levels 0 and 1 (slopes are linear).
        """
        s_lo, s_hi = self.support
        o_lo, o_hi = other.support
        return (
            s_lo - _EPS <= o_lo
            and o_hi <= s_hi + _EPS
            and self.m1 - _EPS <= other.m1
            and other.m2 <= self.m2 + _EPS
        )

    # ------------------------------------------------------------------
    # Arithmetic (Bonissone/Decker LR rules; see module docstring)
    # ------------------------------------------------------------------
    def __add__(self, other: "FuzzyInterval | float | int") -> "FuzzyInterval":
        other = _coerce(other)
        return FuzzyInterval(
            self.m1 + other.m1,
            self.m2 + other.m2,
            self.alpha + other.alpha,
            self.beta + other.beta,
        )

    __radd__ = __add__

    def __neg__(self) -> "FuzzyInterval":
        return FuzzyInterval(-self.m2, -self.m1, self.beta, self.alpha)

    def __sub__(self, other: "FuzzyInterval | float | int") -> "FuzzyInterval":
        other = _coerce(other)
        return FuzzyInterval(
            self.m1 - other.m2,
            self.m2 - other.m1,
            self.alpha + other.beta,
            self.beta + other.alpha,
        )

    def __rsub__(self, other: "FuzzyInterval | float | int") -> "FuzzyInterval":
        return _coerce(other) - self

    def __mul__(self, other: "FuzzyInterval | float | int") -> "FuzzyInterval":
        other = _coerce(other)
        core = _interval_mul(self.core, other.core)
        supp = _interval_mul(self.support, other.support)
        return FuzzyInterval.from_support_core(supp, core)

    __rmul__ = __mul__

    def __truediv__(self, other: "FuzzyInterval | float | int") -> "FuzzyInterval":
        other = _coerce(other)
        core = _interval_div(self.core, other.core)
        supp = _interval_div(self.support, other.support)
        return FuzzyInterval.from_support_core(supp, core)

    def __rtruediv__(self, other: "FuzzyInterval | float | int") -> "FuzzyInterval":
        return _coerce(other) / self

    def scale(self, k: float) -> "FuzzyInterval":
        """Multiplication by a crisp scalar (exact, not an approximation)."""
        if k >= 0:
            return FuzzyInterval(k * self.m1, k * self.m2, k * self.alpha, k * self.beta)
        return FuzzyInterval(k * self.m2, k * self.m1, -k * self.beta, -k * self.alpha)

    def apply_monotone(self, func: Callable[[float], float], increasing: bool = True) -> "FuzzyInterval":
        """Image of this fuzzy interval under a monotone real function.

        Uses the extension principle on the 0- and 1-cuts (exact at those
        levels, linear in between).  ``func`` must be monotone over the
        support.  ``increasing`` documents the direction at the call
        site; the endpoint images are sorted, so either direction works.
        """
        s_lo, s_hi = self.support
        pts_core = sorted((func(self.m1), func(self.m2)))
        pts_supp = sorted((func(s_lo), func(s_hi)))
        return FuzzyInterval.from_support_core(
            (min(pts_supp[0], pts_core[0]), max(pts_supp[1], pts_core[1])),
            (pts_core[0], pts_core[1]),
        )

    def apply_unimodal(
        self, func: Callable[[float], float], peak_x: float, maximum: bool = True
    ) -> "FuzzyInterval":
        """Image under a unimodal function with known extremum at ``peak_x``.

        Needed for the entropy term ``g(x) = -x log2 x`` whose maximum sits
        at ``1/e``: the image of a cut interval ``[a, b]`` is
        ``[min(g(a), g(b)), g(peak)]`` when the peak lies inside and the
        function attains a maximum there (symmetrically for a minimum).
        """

        def image(cut: Tuple[float, float]) -> Tuple[float, float]:
            a, b = cut
            lo, hi = sorted((func(a), func(b)))
            if a <= peak_x <= b:
                peak_val = func(peak_x)
                if maximum:
                    hi = max(hi, peak_val)
                else:
                    lo = min(lo, peak_val)
            return lo, hi

        core = image(self.core)
        supp = image(self.support)
        return FuzzyInterval.from_support_core(
            (min(supp[0], core[0]), max(supp[1], core[1])), core
        )

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------
    def overlaps(self, other: "FuzzyInterval") -> bool:
        """True when the supports intersect (including at a single point)."""
        a_lo, a_hi = self.support
        b_lo, b_hi = other.support
        return a_lo <= b_hi + _EPS and b_lo <= a_hi + _EPS

    def intersection_area(self, other: "FuzzyInterval") -> float:
        """Exact area under ``min(mu_self, mu_other)``.

        Both membership functions are piecewise linear, so their pointwise
        minimum is piecewise linear with breakpoints at the trapezoid
        corners and at slope crossings; on each sub-segment the integral
        equals the midpoint value times the width.

        Degenerate operands (zero area) contribute zero area; callers that
        need a *degree* for a crisp point should use
        :func:`repro.fuzzy.compare.consistency`, which falls back to the
        membership degree.
        """
        if not self.overlaps(other):
            return 0.0
        xs = set()
        for fz in (self, other):
            s_lo, s_hi = fz.support
            xs.update((s_lo, fz.m1, fz.m2, s_hi))
        xs.update(_slope_crossings(self, other))
        lo = max(self.support[0], other.support[0])
        hi = min(self.support[1], other.support[1])
        grid = sorted(x for x in xs if lo - _EPS <= x <= hi + _EPS)
        if not grid or grid[0] > lo:
            grid.insert(0, lo)
        if grid[-1] < hi:
            grid.append(hi)
        total = 0.0
        for left, right in zip(grid, grid[1:]):
            if right - left <= _EPS:
                continue
            mid = 0.5 * (left + right)
            total += min(self.membership(mid), other.membership(mid)) * (right - left)
        return total

    def intersection_hull(self, other: "FuzzyInterval") -> "FuzzyInterval | None":
        """Trapezoidal hull of ``min(mu_self, mu_other)``, or ``None`` if disjoint.

        Used by the propagation engine to *narrow* a quantity's label when
        two fuzzy values for it must both hold: support = intersection of
        supports; core = intersection of cores when non-empty, otherwise
        collapsed to the highest-membership point of the minimum.
        """
        if not self.overlaps(other):
            return None
        s_lo = max(self.support[0], other.support[0])
        s_hi = min(self.support[1], other.support[1])
        c_lo = max(self.m1, other.m1)
        c_hi = min(self.m2, other.m2)
        if c_lo <= c_hi:
            return FuzzyInterval.from_support_core((s_lo, s_hi), (c_lo, c_hi))
        # Cores disjoint: the minimum peaks where the falling slope of the
        # lower trapezoid meets the rising slope of the upper one.
        peak = _peak_of_min(self, other, s_lo, s_hi)
        return FuzzyInterval.from_support_core((s_lo, s_hi), (peak, peak))

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.m1, self.m2, self.alpha, self.beta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"[{self.m1:g},{self.m2:g},{self.alpha:g},{self.beta:g}]"
        )


def _coerce(value: "FuzzyInterval | float | int") -> FuzzyInterval:
    if isinstance(value, FuzzyInterval):
        return value
    if isinstance(value, (int, float)):
        return FuzzyInterval.crisp(float(value))
    raise TypeError(f"cannot interpret {value!r} as a fuzzy interval")


def _segments(fz: FuzzyInterval) -> Iterable[Tuple[float, float, float, float]]:
    """Non-degenerate linear pieces of ``fz``'s membership as (x0, y0, x1, y1)."""
    s_lo, s_hi = fz.support
    pieces = ((s_lo, 0.0, fz.m1, 1.0), (fz.m1, 1.0, fz.m2, 1.0), (fz.m2, 1.0, s_hi, 0.0))
    return [p for p in pieces if p[2] - p[0] > _EPS]


def _slope_crossings(a: FuzzyInterval, b: FuzzyInterval) -> Iterable[float]:
    """x-coordinates where a linear piece of ``a`` crosses one of ``b``."""
    crossings = []
    for x0, y0, x1, y1 in _segments(a):
        slope_a = (y1 - y0) / (x1 - x0)
        for u0, v0, u1, v1 in _segments(b):
            slope_b = (v1 - v0) / (u1 - u0)
            if abs(slope_a - slope_b) <= _EPS:
                continue
            # Solve y0 + sa (x - x0) = v0 + sb (x - u0).
            x = (v0 - y0 + slope_a * x0 - slope_b * u0) / (slope_a - slope_b)
            if max(x0, u0) - _EPS <= x <= min(x1, u1) + _EPS:
                crossings.append(x)
    return crossings


def _peak_of_min(a: FuzzyInterval, b: FuzzyInterval, lo: float, hi: float) -> float:
    """Argmax of ``min(mu_a, mu_b)`` over [lo, hi] for core-disjoint trapezoids."""
    candidates = [lo, hi]
    candidates.extend(x for x in _slope_crossings(a, b) if lo - _EPS <= x <= hi + _EPS)
    best_x, best_v = lo, -1.0
    for x in candidates:
        v = min(a.membership(x), b.membership(x))
        if v > best_v:
            best_x, best_v = x, v
    return min(max(best_x, lo), hi)
