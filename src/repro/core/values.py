"""Fuzzy values carried by the propagation engine.

A quantity's *label* (in the paper's interval-labelling sense — not to
be confused with the ATMS label) is the set of fuzzy values currently
believed for it.  Each value records the fuzzy interval, the set of
component assumptions supporting it, the certainty degree accumulated
along its derivation, and a provenance string for explanations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro.fuzzy import FuzzyInterval

__all__ = ["FuzzyValue"]


@dataclass(frozen=True)
class FuzzyValue:
    """A fuzzy interval believed for a quantity under some assumptions.

    Attributes:
        interval: the fuzzy interval of possible values.
        environment: names of the components whose correctness supports
            this value (empty for seeds and measurements).
        degree: certainty accumulated along the derivation (1.0 unless an
            uncertain rule participated).
        source: provenance — ``"seed"``, ``"measurement"`` or the name of
            the constraint that produced it.
    """

    interval: FuzzyInterval
    environment: FrozenSet[str] = frozenset()
    degree: float = 1.0
    source: str = ""
    #: How many narrowing merges produced this entry; the propagator
    #: freezes entries past its narrowing budget so loop relaxation has a
    #: hard stop independent of slack arithmetic.
    revision: int = 0
    #: True when the value descends from a physical seed bound.  A
    #: seed-descended interval is a *valid* bound but its width reflects
    #: ignorance, not the model's implication, so the conflict engine
    #: must not read Dc mass into it.
    from_seed: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.degree <= 1.0:
            raise ValueError(f"value degree {self.degree} outside (0, 1]")

    @property
    def is_measurement(self) -> bool:
        return self.source == "measurement"

    @property
    def is_seed(self) -> bool:
        return self.source == "seed"

    @property
    def width(self) -> float:
        return self.interval.width

    def subsumes(self, other: "FuzzyValue", slack: float = 0.0) -> bool:
        """True when this value makes ``other`` redundant.

        A value is redundant when a no-stronger assumption set already
        supports an interval at least as narrow (up to ``slack`` on both
        the support and the core — the slack is what guarantees the
        propagation loop terminates) at an equal-or-higher degree.
        """
        if not self.environment <= other.environment:
            return False
        if self.degree < other.degree:
            return False
        mine, theirs = self.interval, other.interval
        return (
            (theirs.m1 - theirs.alpha) - slack <= mine.m1 - mine.alpha
            and mine.m2 + mine.beta <= (theirs.m2 + theirs.beta) + slack
            and theirs.m1 - slack <= mine.m1
            and mine.m2 <= theirs.m2 + slack
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        env = "{" + ",".join(sorted(self.environment)) + "}"
        deg = "" if self.degree == 1.0 else f"@{self.degree:g}"
        return f"{self.interval!r}{env}{deg}<{self.source}>"
