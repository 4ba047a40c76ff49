"""GDE/FIS-style probabilistic test selection (the paper's §8 foil).

"Many systems, such as FIS and GDE, used the probabilistic approach,
which is a numerical approach" with "heavy calculus and hard assumptions
(a priori probabilities, mutual exclusiveness of hypotheses, etc.)".
This module implements exactly that foil: crisp per-component fault
probabilities, Shannon entropy, and minimum-expected-entropy probe
selection, plus a random prober as the lower bound for the strategy
benchmark.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.diagnosis import DiagnosisResult, Flames

__all__ = ["shannon_entropy", "GdeTestPlanner", "RandomProbePlanner", "CrispTest"]

#: A priori fault probability of every component.
PRIOR = 0.02


def shannon_entropy(probabilities: Sequence[float]) -> float:
    """``-sum p log2 p`` over independent per-component fault bits."""
    total = 0.0
    for p in probabilities:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
        for q in (p, 1.0 - p):
            if q > 0.0:
                total -= q * math.log2(q)
    return total


@dataclass(frozen=True)
class CrispTest:
    """A candidate probe with its crisp expected entropy."""

    point: str
    expected: float
    conflict_probability: float

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CrispTest({self.point} E={self.expected:.3f})"


class GdeTestPlanner:
    """Minimum expected Shannon entropy probe selection.

    Components get the prior fault probability :data:`PRIOR`; nogood
    membership raises the posterior (scaled by suspicion degree, so
    FLAMES's fuzzy output can feed this planner for an apples-to-apples
    comparison).
    """

    def __init__(self, engine: Flames) -> None:
        self.engine = engine

    # ------------------------------------------------------------------
    def probabilities(self, result: DiagnosisResult) -> Dict[str, float]:
        """Posterior fault probability per component."""
        posteriors: Dict[str, float] = {}
        for comp in self.engine.circuit.components:
            suspicion = result.suspicions.get(comp.name, 0.0)
            # Implicated components move from the prior toward certainty
            # proportionally to how seriously they are implicated.
            posteriors[comp.name] = PRIOR + (0.5 - PRIOR) * suspicion
        return posteriors

    # ------------------------------------------------------------------
    def candidate_points(
        self, result: DiagnosisResult, available: Optional[Sequence[str]] = None
    ) -> List[str]:
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
    ) -> List[CrispTest]:
        probabilities = self.probabilities(result)
        support = self.engine.prediction_support()
        tests: List[CrispTest] = []
        for point in self.candidate_points(result, available):
            supporters = support.get(point, frozenset())
            if supporters:
                p_conflict = sum(probabilities[s] for s in supporters if s in probabilities)
                p_conflict = min(p_conflict / len(supporters), 1.0)
            else:
                p_conflict = 0.0

            def entropy_after(raise_supporters: bool) -> float:
                post = dict(probabilities)
                for name in supporters:
                    if name not in post:
                        continue
                    if raise_supporters:
                        post[name] = post[name] + (1.0 - post[name]) * 0.5
                    else:
                        post[name] = post[name] * 0.5
                return shannon_entropy(list(post.values()))

            expected = (1.0 - p_conflict) * entropy_after(False) + p_conflict * entropy_after(True)
            tests.append(CrispTest(point, expected, p_conflict))
        tests.sort(key=lambda t: (t.expected, t.point))
        return tests

    def best(
        self, result: DiagnosisResult, available: Optional[Sequence[str]] = None
    ) -> Optional[CrispTest]:
        ranked = self.recommend(result, available)
        return ranked[0] if ranked else None


class RandomProbePlanner:
    """Uniformly random probe selection — the strategy lower bound."""

    def __init__(self, engine: Flames, seed: int = 0) -> None:
        self.engine = engine
        self.rng = random.Random(seed)

    def best(
        self, result: DiagnosisResult, available: Optional[Sequence[str]] = None
    ) -> Optional[CrispTest]:
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
        pool = sorted(p for p in pool if p not in measured)
        if not pool:
            return None
        return CrispTest(self.rng.choice(pool), float("nan"), float("nan"))
