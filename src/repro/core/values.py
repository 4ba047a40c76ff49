"""Fuzzy values carried by the propagation engine.

A quantity's *label* (in the paper's interval-labelling sense — not to
be confused with the ATMS label) is the set of fuzzy values currently
believed for it.  Each value records the fuzzy interval, the set of
component assumptions supporting it, and a provenance string for
explanations.  Values carry no certainty degree of their own: every
assumption holds at degree 1, so a conflict's degree is the
coincidence's alone (``1 - Dc``).
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
        source: provenance — ``"seed"``, ``"measurement"`` or the name of
            the constraint that produced it.
    """

    interval: FuzzyInterval
    environment: FrozenSet[str] = frozenset()
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
        propagation loop terminates).
        """
        if not self.environment <= other.environment:
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
        return f"{self.interval!r}{env}<{self.source}>"
