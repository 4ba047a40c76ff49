"""Assumptions and environments.

An *assumption* is a proposition taken on faith — in circuit diagnosis,
``Correct(R1)`` for each component (paper section 6).  An *environment*
is a set of assumptions; a node "holds in" an environment when it is
derivable from those assumptions plus the premises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterator

__all__ = ["Assumption", "Environment"]


@dataclass(frozen=True, order=True)
class Assumption:
    """A named propositional assumption, e.g. the correctness of a component.

    ``datum`` is an optional payload tying the assumption back to the
    domain object (a component name in FLAMES).
    """

    name: str
    datum: str = ""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class Environment:
    """An immutable set of assumptions, ordered for deterministic display."""

    assumptions: FrozenSet[Assumption] = field(default_factory=frozenset)

    @classmethod
    def empty(cls) -> "Environment":
        return _EMPTY

    def union(self, other: "Environment") -> "Environment":
        if not other.assumptions:
            return self
        if not self.assumptions:
            return other
        return Environment(self.assumptions | other.assumptions)

    def is_subset(self, other: "Environment") -> bool:
        return self.assumptions <= other.assumptions

    def is_proper_subset(self, other: "Environment") -> bool:
        return self.assumptions < other.assumptions

    @property
    def size(self) -> int:
        return len(self.assumptions)

    def __iter__(self) -> Iterator[Assumption]:
        return iter(sorted(self.assumptions))

    def __len__(self) -> int:
        return len(self.assumptions)

    def __bool__(self) -> bool:
        return bool(self.assumptions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not self.assumptions:
            return "{}"
        return "{" + ",".join(a.name for a in sorted(self.assumptions)) + "}"


_EMPTY = Environment(frozenset())

