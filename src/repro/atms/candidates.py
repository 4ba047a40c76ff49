"""From minimal nogoods to ranked diagnosis candidates.

Following de Kleer & Williams (GDE) and Reiter, the minimal *diagnoses*
(candidate sets of faulty components) are exactly the minimal hitting
sets of the minimal conflicts.  FLAMES adds degrees: each nogood has a
seriousness in (0, 1], a component's *suspicion* is the strongest nogood
implicating it, and a diagnosis inherits the weakest degree among the
nogoods it has to explain (its weakest link).  The paper's diode example
(figure 5) surfaces nogoods ``{r1,d1}@0.5`` and ``{r2,d1}@1`` and lets
the expert "give more concentration" to the serious one — that ordering
is the suspicion score here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.atms.assumptions import Assumption
from repro.atms.nogood import WeightedNogood

__all__ = [
    "Diagnosis",
    "minimal_hitting_sets",
    "minimal_diagnoses",
    "suspicion_scores",
]


@dataclass(frozen=True)
class Diagnosis:
    """A minimal candidate: blame exactly these assumptions' components.

    ``degree`` is the weakest seriousness among the conflicts the
    diagnosis explains — how strongly the evidence demands *some* member
    of this candidate be faulty.
    """

    assumptions: FrozenSet[Assumption]
    degree: float

    @property
    def size(self) -> int:
        return len(self.assumptions)

    @property
    def components(self) -> Tuple[str, ...]:
        """The domain objects blamed, sorted for stable display."""
        return tuple(sorted(a.datum or a.name for a in self.assumptions))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ",".join(sorted(a.name for a in self.assumptions))
        return f"[{names}]@{self.degree:g}"


def minimal_hitting_sets(
    sets: Sequence[FrozenSet],
    max_size: Optional[int] = None,
) -> List[FrozenSet]:
    """All subset-minimal hitting sets of ``sets``.

    Branch-and-prune search in the style of Reiter's HS-tree: process
    conflict sets smallest-first, branch on the elements of the first
    set the partial candidate misses.  An empty conflict set is
    unhittable and yields no candidates.  ``max_size`` bounds candidate
    cardinality (the usual "consider at most k simultaneous faults").
    """
    conflict_sets = sorted({frozenset(s) for s in sets}, key=len)
    if any(not s for s in conflict_sets):
        return []
    if not conflict_sets:
        return [frozenset()]
    results: List[FrozenSet] = []

    def extend(partial: FrozenSet, remaining: Tuple[FrozenSet, ...]) -> None:
        unhit = [s for s in remaining if not (s & partial)]
        if not unhit:
            if not any(r <= partial for r in results):
                results[:] = [r for r in results if not partial <= r or r == partial]
                results.append(partial)
            return
        if max_size is not None and len(partial) >= max_size:
            return
        branch_set = min(unhit, key=len)
        for element in sorted(branch_set, key=repr):
            extend(partial | {element}, tuple(unhit))

    extend(frozenset(), tuple(conflict_sets))
    # Final minimality sweep (branch order can momentarily admit supersets).
    minimal: List[FrozenSet] = []
    for cand in sorted(results, key=len):
        if not any(kept < cand for kept in minimal):
            minimal.append(cand)
    return minimal


def minimal_diagnoses(
    nogoods: Iterable[WeightedNogood],
    threshold: float = 0.0,
    max_size: Optional[int] = None,
) -> List[Diagnosis]:
    """Ranked minimal diagnoses explaining every nogood above ``threshold``.

    Nogoods below the threshold are treated as noise and need not be hit
    (the paper's way to "restrict the effect of explosion": the expert
    works down the sorted list).  Results are sorted most-serious first,
    then smallest, then lexicographically.
    """
    serious = [n for n in nogoods if n.degree >= threshold and n.environment]
    if not serious:
        return []
    sets = [frozenset(n.environment.assumptions) for n in serious]
    hitters = minimal_hitting_sets(sets, max_size=max_size)
    diagnoses = []
    for hit in hitters:
        explained = [n.degree for n in serious if hit & frozenset(n.environment.assumptions)]
        degree = min(explained) if explained else 0.0
        diagnoses.append(Diagnosis(hit, degree))
    diagnoses.sort(key=lambda d: (-d.degree, d.size, d.components))
    return diagnoses


def suspicion_scores(nogoods: Iterable[WeightedNogood]) -> Dict[Assumption, float]:
    """Per-assumption suspicion: the strongest nogood implicating it."""
    scores: Dict[Assumption, float] = {}
    for nogood in nogoods:
        for assumption in nogood.environment:
            if scores.get(assumption, 0.0) < nogood.degree:
                scores[assumption] = nogood.degree
    return scores
