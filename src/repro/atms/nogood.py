"""Weighted nogood database.

A *nogood* is a set of assumptions that jointly support a contradiction.
FLAMES attaches a degree to every nogood: ``1`` for a frank conflict,
``1 - Dc`` for a partial conflict (paper section 6.1.2).  The database
keeps the collection minimal under the degree-aware subsumption rule: a
nogood is redundant when a *subset* of it is already known to fail at an
equal or higher degree.

:func:`fold_conflicts` is the one place a conflict log becomes nogoods:
the static pipeline, the streaming engine and dynamic mode all call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterable, Iterator, List, Tuple

from repro.atms.assumptions import Assumption, Environment

__all__ = ["WeightedNogood", "NogoodDatabase", "admitted_conflicts", "fold_conflicts"]

#: One logged conflict as plain data: (component names, conflict degree).
Conflict = Tuple[AbstractSet[str], float]

#: Nogood degree at and above which an environment is outright
#: inconsistent.  As in the classic ATMS only frank conflicts kill
#: environments, which is exactly the FLAMES behaviour: partial conflicts
#: rank candidates without pruning.
HARD_THRESHOLD = 1.0


@dataclass(frozen=True)
class WeightedNogood:
    """A minimal conflicting environment together with its seriousness."""

    environment: Environment
    degree: float

    def __post_init__(self) -> None:
        if not 0.0 < self.degree <= 1.0:
            raise ValueError(f"nogood degree {self.degree} outside (0, 1]")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Nogood{self.environment!r}@{self.degree:g}"


class NogoodDatabase:
    """Minimal store of weighted nogoods."""

    def __init__(self) -> None:
        self._store: Dict[Environment, float] = {}

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self):
        return iter(self.minimal())

    def add(self, environment: Environment, degree: float = 1.0) -> bool:
        """Record a nogood; returns True when the database changed.

        Degenerate empty-environment nogoods are legal (the premises are
        contradictory) and subsume everything at their degree.
        """
        if not 0.0 < degree <= 1.0:
            raise ValueError(f"nogood degree {degree} outside (0, 1]")
        for env, d in self._store.items():
            if env.is_subset(environment) and d >= degree:
                return False
        # Remove newly subsumed entries (supersets at lower-or-equal degree).
        doomed = [
            env
            for env, d in self._store.items()
            if environment.is_subset(env) and d <= degree and env != environment
        ]
        for env in doomed:
            del self._store[env]
        changed = self._store.get(environment) != degree
        self._store[environment] = degree
        return changed or bool(doomed)

    def is_inconsistent(self, environment: Environment) -> bool:
        """True when a nogood at :data:`HARD_THRESHOLD` is a subset of ``environment``."""
        return any(
            d >= HARD_THRESHOLD and env.is_subset(environment)
            for env, d in self._store.items()
        )

    def minimal(self, threshold: float = 0.0) -> List[WeightedNogood]:
        """All stored nogoods at degree >= ``threshold``, most serious first."""
        found = [
            WeightedNogood(env, d)
            for env, d in self._store.items()
            if d >= threshold and d > 0.0
        ]
        found.sort(key=lambda n: (-n.degree, n.environment.size, repr(n.environment)))
        return found


def admitted_conflicts(conflicts: Iterable[Conflict], threshold: float) -> Iterator[Conflict]:
    """The conflicts that become nogoods, degrees capped at 1.

    A conflict below ``threshold`` is tolerance noise, one at degree 0
    is a corroboration, and one over an empty set of components is a
    data conflict (the readings disagree among themselves): none of
    them accuses a component.
    """
    for names, degree in conflicts:
        if degree >= threshold and degree > 0.0 and names:
            yield names, min(degree, 1.0)


def fold_conflicts(conflicts: Iterable[Conflict], threshold: float) -> List[WeightedNogood]:
    """Fold a conflict log into minimal weighted nogoods (paper §6.1.2).

    Each admitted conflict is a nogood over the ``ok(name)`` correctness
    assumptions of its components; the result is the database's minimal
    nogoods at or above ``threshold``, most serious first.
    """
    db = NogoodDatabase()
    ok: Dict[str, Assumption] = {}  # one object per component: cheap set compares
    for names, degree in admitted_conflicts(conflicts, threshold):
        for name in names:
            if name not in ok:
                ok[name] = Assumption(f"ok({name})", name)
        db.add(Environment(frozenset(ok[name] for name in names)), degree)
    return db.minimal(threshold)
