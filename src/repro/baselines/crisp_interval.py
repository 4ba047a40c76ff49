"""Crisp interval arithmetic — the DIANA representation (paper §4.2).

"Crisp intervals contain all sorts of inaccuracy without any
distinction, which can cause an explosion in the value propagation
through the circuit" — and, worse, they *mask* slight faults: a value
just inside the accumulated bounds is accepted outright, where the fuzzy
representation still reports a low membership.  This module provides the
standalone crisp interval used by the figure-2 comparison and the crisp
baseline diagnoser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.fuzzy import FuzzyInterval

__all__ = ["Interval"]


@dataclass(frozen=True)
class Interval:
    """A closed crisp interval ``[lo, hi]``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval bounds must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    # ------------------------------------------------------------------
    @classmethod
    def point(cls, value: float) -> "Interval":
        return cls(value, value)

    def to_fuzzy(self) -> FuzzyInterval:
        return FuzzyInterval.crisp_interval(self.lo, self.hi)

    # ------------------------------------------------------------------
    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "Interval | float") -> "Interval":
        other = _coerce(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval | float") -> "Interval":
        other = _coerce(other)
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other: "Interval | float") -> "Interval":
        return _coerce(other) - self

    def __mul__(self, other: "Interval | float") -> "Interval":
        other = _coerce(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other: "Interval | float") -> "Interval":
        other = _coerce(other)
        if other.lo <= 0.0 <= other.hi:
            raise ZeroDivisionError("crisp division by an interval containing zero")
        quotients = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return Interval(min(quotients), max(quotients))

    def __rtruediv__(self, other: "Interval | float") -> "Interval":
        return _coerce(other) / self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.lo:g},{self.hi:g}]"


def _coerce(value: "Interval | float | int") -> Interval:
    if isinstance(value, Interval):
        return value
    if isinstance(value, (int, float)):
        return Interval(float(value), float(value))
    raise TypeError(f"cannot interpret {value!r} as a crisp interval")
