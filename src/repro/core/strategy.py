"""Best-test strategies with fuzzy entropy (paper §8).

The planner recommends "at any point the next best test to make, from a
set of predefined available tests".  Instead of GDE/FIS-style numeric
probabilities ("with its heavy calculus and hard assumptions"), each
component carries a *fuzzy estimation* of faultiness — a linguistic term
on [0, 1] — and a candidate probe is scored by the *expected fuzzy
entropy* of the estimations it would leave behind:

* probing a point whose prediction is supported by components we are
  unsure about is informative (either outcome moves their estimations
  toward certainty);
* probing a point supported only by components already known good (or
  already condemned) is wasted.

The expected entropy of a test is the outcome-weighted fuzzy sum of the
post-outcome system entropies, with the outcome weights themselves fuzzy
(the estimated chance the probe conflicts).  Tests are ranked by
centroid defuzzification of their expected entropy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.diagnosis import DiagnosisResult, Flames
from repro.fuzzy import (
    FuzzyInterval,
    LinguisticVariable,
    expected_entropy,
    fuzzy_entropy,
    rank_key,
)
from repro.fuzzy.linguistic import FAULTINESS_5

__all__ = ["TestRecommendation", "BestTestPlanner"]


@dataclass(frozen=True)
class TestRecommendation:
    """A candidate probe with its expected post-test fuzzy entropy."""

    point: str
    expected: FuzzyInterval
    conflict_weight: FuzzyInterval
    supporters: frozenset

    @property
    def score(self) -> float:
        """Defuzzified expected entropy (lower is better)."""
        return self.expected.centroid

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Test({self.point} E~{self.score:.3f})"


class BestTestPlanner:
    """Fuzzy-entropy probe selection for one engine instance."""

    def __init__(self, engine: Flames, scale: LinguisticVariable = FAULTINESS_5) -> None:
        self.engine = engine
        self.scale = scale

    # ------------------------------------------------------------------
    # Fuzzy faultiness estimations
    # ------------------------------------------------------------------
    def estimations(self, result: DiagnosisResult) -> Dict[str, FuzzyInterval]:
        """Fuzzy faultiness estimation per component.

        A component's suspicion (strongest nogood implicating it) becomes
        a fuzzy estimation on [0, 1]: the matching linguistic term of the
        configured scale, so the numbers the strategy unit manipulates
        are exactly the paper's semi-qualitative estimations.
        """
        estimations: Dict[str, FuzzyInterval] = {}
        for comp in self.engine.circuit.components:
            suspicion = result.suspicions.get(comp.name, 0.0)
            term = self.scale.classify(min(max(suspicion, 0.0), 1.0))
            estimations[comp.name] = self.scale.term(term).value
        return estimations

    def system_entropy(self, result: DiagnosisResult) -> FuzzyInterval:
        """Current fuzzy entropy of the candidate estimations."""
        return fuzzy_entropy(self.estimations(result).values())

    # ------------------------------------------------------------------
    # Test ranking
    # ------------------------------------------------------------------
    def candidate_points(
        self, result: DiagnosisResult, available: Optional[Sequence[str]] = None
    ) -> List[str]:
        """Probe-able voltage points not yet measured."""
        measured = {m.point for m in result.measurements}
        pool = (
            list(available)
            if available is not None
            else [
                name
                for name in self.engine.network.variables
                if name.startswith("V(") and name != "V(0)"
            ]
        )
        return sorted(p for p in pool if p not in measured)

    def recommend(
        self,
        result: DiagnosisResult,
        available: Optional[Sequence[str]] = None,
    ) -> List[TestRecommendation]:
        """Rank candidate probes by expected fuzzy entropy, best first."""
        estimations = self.estimations(result)
        support = self.engine.prediction_support()
        recommendations: List[TestRecommendation] = []
        for point in self.candidate_points(result, available):
            supporters = frozenset(support.get(point, frozenset()))
            recommendations.append(self._evaluate(point, supporters, estimations))
        recommendations.sort(key=lambda r: (rank_key(r.expected), r.point))
        return recommendations

    def best(
        self,
        result: DiagnosisResult,
        available: Optional[Sequence[str]] = None,
    ) -> Optional[TestRecommendation]:
        ranked = self.recommend(result, available)
        return ranked[0] if ranked else None

    # ------------------------------------------------------------------
    def _evaluate(
        self,
        point: str,
        supporters: frozenset,
        estimations: Dict[str, FuzzyInterval],
    ) -> TestRecommendation:
        """Expected fuzzy entropy after probing ``point``.

        Outcome "conflict" raises the supporters' estimations toward
        faulty, outcome "consistent" lowers them toward correct; the
        conflict weight is the fuzzy mean faultiness of the supporters
        (no supporter can conflict -> weight zero).
        """
        if supporters:
            total = FuzzyInterval.crisp(0.0)
            for name in supporters:
                total = total + estimations.get(name, FuzzyInterval.crisp(0.0))
            conflict_weight = _clamp_unit(total.scale(1.0 / len(supporters)))
        else:
            conflict_weight = FuzzyInterval.crisp(0.0)
        consistent_weight = _clamp_unit(FuzzyInterval.crisp(1.0) - conflict_weight)

        def outcome(raise_supporters: bool) -> FuzzyInterval:
            post = dict(estimations)
            for name in supporters:
                fi = post.get(name, FuzzyInterval.crisp(0.0))
                if raise_supporters:
                    post[name] = _clamp_unit(
                        FuzzyInterval.crisp(1.0) - (FuzzyInterval.crisp(1.0) - fi).scale(0.5)
                    )
                else:
                    post[name] = _clamp_unit(fi.scale(0.5))
            return fuzzy_entropy(post.values())

        expected = expected_entropy(
            [outcome(False), outcome(True)],
            [consistent_weight, conflict_weight],
        )
        return TestRecommendation(point, expected, conflict_weight, supporters)


def _clamp_unit(value: FuzzyInterval) -> FuzzyInterval:
    clip = lambda x: min(max(x, 0.0), 1.0)
    s_lo, s_hi = value.support
    return FuzzyInterval.from_support_core(
        (clip(s_lo), clip(s_hi)), (clip(value.m1), clip(value.m2))
    )
