"""The conflict-recognition engine (paper §6.1).

"The central task of diagnosis is to detect discrepancies between
predicted values and measurements and to build the sets of candidates
which support these discrepancies."  This module turns a coincidence
between two :class:`~repro.core.values.FuzzyValue` objects into a
:class:`RecognizedConflict` — the weighted nogood over the union of the
two supporting environments — which the engine hands to the fuzzy ATMS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.core.coincidence import Coincidence, classify
from repro.core.values import FuzzyValue

__all__ = ["RecognizedConflict", "recognize"]

#: Conflicts weaker than this are treated as tolerance noise.
MIN_CONFLICT_DEGREE = 1e-6


@dataclass(frozen=True)
class RecognizedConflict:
    """A discrepancy between two values for the same quantity.

    ``environment`` is the union of the supporting assumption sets — the
    nogood; ``degree`` its seriousness, the coincidence's conflict
    degree ``1 - Dc``; ``direction`` locates the *newer* value relative
    to the older one, which is the sign information figure 7 exploits.
    """

    variable: str
    environment: FrozenSet[str]
    degree: float
    direction: int
    coincidence: Coincidence
    newer: FuzzyValue
    older: FuzzyValue

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        env = "{" + ",".join(sorted(self.environment)) + "}"
        return f"Conflict({self.variable} {env}@{self.degree:.3g} dir={self.direction:+d})"


def recognize(
    variable: str, newer: FuzzyValue, older: FuzzyValue
) -> Optional[RecognizedConflict]:
    """Detect a conflict between a new value and an established one.

    Returns ``None`` for corroborations and refinements (no discrepancy),
    and for pairs whose supporting environments *overlap*: two values
    sharing an assumption also share that component's fuzzy tolerance, so
    a direct Dc between them double-counts the shared spread and
    overstates the conflict.  This is the paper's coincidence-resolution
    principle — "a coincidence between two propagated values is
    considered as a coincidence between either of them with the predicted
    value" — which always pits a derivation against an independent one.
    Two observations of the *same* quantity with empty environments that
    disagree indicate contradictory measurements; the conflict is still
    reported (with an empty nogood) so the caller can flag the data.
    """
    if newer.environment & older.environment:
        return None
    coincidence = classify(newer.interval, older.interval)
    degree = coincidence.conflict_degree
    if degree <= MIN_CONFLICT_DEGREE:
        return None
    return RecognizedConflict(
        variable=variable,
        environment=newer.environment | older.environment,
        degree=degree,
        direction=coincidence.direction,
        coincidence=coincidence,
        newer=newer,
        older=older,
    )
