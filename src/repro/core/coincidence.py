"""Coincidence classification and resolution (paper figure 4 / §6.1.1).

A *coincidence* is the discovery of a value for a quantity that already
has one.  Figure 4 distinguishes:

* **case a** — one value splits (refines) the other: no conflict, the
  narrower value wins;
* **case b** — conflict (disjoint) or partial conflict (overlap without
  inclusion): a nogood with degree ``1 - Dc``;
* **case c** — corroboration (equal values): no new information, and —
  as the paper stresses — *not* an exoneration of the components
  involved.

:func:`resolve` combines two coincident values into the narrowed result
plus the conflict degree to record, which is how the propagation engine
consumes this module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.fuzzy import FuzzyInterval, consistency, possibility
from repro.fuzzy.compare import Consistency

__all__ = ["CoincidenceKind", "Coincidence", "classify", "resolve"]

_EPS = 1e-9


class CoincidenceKind(enum.Enum):
    CORROBORATION = "corroboration"  # case c: A == B
    A_SPLITS_B = "a_splits_b"  # case a: A refines B
    B_SPLITS_A = "b_splits_a"  # case a: B refines A
    PARTIAL_CONFLICT = "partial_conflict"  # case b, overlapping
    CONFLICT = "conflict"  # case b, disjoint


@dataclass(frozen=True)
class Coincidence:
    """Classification of a coincidence between two fuzzy values.

    ``worst`` is the least favourable of the two directional consistency
    degrees — the paper's "particular attention should be given to the
    path which led to the worst one".  ``conflict_degree`` is the degree
    of the nogood the conflict-recognition engine must record: the Dc
    complement (inclusion either way means no conflict), additionally
    capped by the possibility complement — when the two values' *cores*
    intersect, their most-plausible readings agree outright, and leaking
    tolerance slopes past a one-sided bound is not evidence of a fault
    (the possibilistic reading the paper's §6.1.2 justification invokes).
    """

    kind: CoincidenceKind
    a_in_b: Consistency
    b_in_a: Consistency
    worst: Consistency
    overlap_possibility: float = 0.0

    @property
    def conflict_degree(self) -> float:
        dc_complement = 1.0 - max(self.a_in_b.degree, self.b_in_a.degree)
        return min(dc_complement, 1.0 - self.overlap_possibility)

    @property
    def direction(self) -> int:
        """Deviation direction of ``a`` relative to ``b``."""
        return self.a_in_b.direction


def classify(a: FuzzyInterval, b: FuzzyInterval) -> Coincidence:
    """Classify the coincidence of two fuzzy intervals per figure 4."""
    a_in_b = consistency(a, b)
    b_in_a = consistency(b, a)
    overlap = possibility(a, b)
    worst = a_in_b if a_in_b.degree <= b_in_a.degree else b_in_a
    if a_in_b.degree >= 1.0 - _EPS and b_in_a.degree >= 1.0 - _EPS:
        kind = CoincidenceKind.CORROBORATION
    elif a_in_b.degree >= 1.0 - _EPS:
        kind = CoincidenceKind.A_SPLITS_B  # a included in b: a refines (splits) b
    elif b_in_a.degree >= 1.0 - _EPS:
        kind = CoincidenceKind.B_SPLITS_A
    elif max(a_in_b.degree, b_in_a.degree) <= _EPS:
        kind = CoincidenceKind.CONFLICT
    else:
        kind = CoincidenceKind.PARTIAL_CONFLICT
    return Coincidence(kind, a_in_b, b_in_a, worst, overlap)


def resolve(
    a: FuzzyInterval, b: FuzzyInterval
) -> Tuple[Optional[FuzzyInterval], float]:
    """Combined value and conflict degree for a coincidence.

    Returns ``(narrowed, conflict_degree)``: the narrowed value is the
    trapezoidal hull of the pointwise minimum when the supports overlap
    (both constraints must hold), or ``None`` for a frank conflict where
    no common value survives.
    """
    coin = classify(a, b)
    if coin.kind is CoincidenceKind.CONFLICT:
        return None, 1.0
    return a.intersection_hull(b), coin.conflict_degree
