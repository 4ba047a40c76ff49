"""The full FLAMES system: one session per unit under test (figure 3).

The paper draws FLAMES as five cooperating units with the expert wired
to each; :class:`TroubleshootingSession` is that wiring.  A session
accumulates measurements on one unit, re-diagnoses after each
observation, merges the fuzzy-ATMS suspicions with the experience
base's learned rules, offers fault-mode refinements and next-best-test
recommendations, and — when the expert confirms the repair — records
the episode so the next unit benefits.

The session builds its own knowledge base and planner over its engine
(one session, one :class:`~repro.core.model.CircuitModel`); only the
experience base is shared across sessions.  Every intermediate artefact
(the raw :class:`DiagnosisResult`, the mode matches, the ranked tests)
is exposed rather than hidden behind a verdict.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.circuit.measurements import Measurement, probe
from repro.circuit.netlist import Circuit
from repro.circuit.simulate import OperatingPoint
from repro.core.diagnosis import DiagnosisResult, Flames
from repro.core.knowledge import KnowledgeBase, ModeMatch
from repro.core.learning import ExperienceBase, LearnedRule, SymptomSignature
from repro.core.report import render_report
from repro.core.strategy import BestTestPlanner, TestRecommendation

__all__ = ["TroubleshootingSession"]


class TroubleshootingSession:
    """Interactive diagnosis of one unit under test.

    Args:
        circuit: the golden design (the model database is built from it).
        experience: a shared :class:`ExperienceBase` carried across
            sessions (the repair shop's memory); a fresh one by default.
    """

    def __init__(self, circuit: Circuit, experience: Optional[ExperienceBase] = None) -> None:
        self.engine = Flames(circuit)
        self.experience = experience if experience is not None else ExperienceBase()
        #: The fault-mode/rule base, simulating through the engine's model.
        self.knowledge = KnowledgeBase(circuit, model=self.engine.model)
        #: The best-test strategy unit.
        self.planner = BestTestPlanner(self.engine)
        self.measurements: List[Measurement] = []
        self._result: Optional[DiagnosisResult] = None

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    def observe(self, *measurements: Measurement) -> DiagnosisResult:
        """Add measurements and re-diagnose."""
        if not measurements:
            raise ValueError("observe() needs at least one measurement")
        for m in measurements:
            self.measurements = [x for x in self.measurements if x.point != m.point]
            self.measurements.append(m)
        self._result = self.engine.diagnose(self.measurements)
        return self._result

    def observe_probe(
        self, op: OperatingPoint, net: str, imprecision: float = 0.02
    ) -> DiagnosisResult:
        """Convenience: probe a simulated bench and observe the reading."""
        return self.observe(probe(op, net, imprecision))

    @property
    def result(self) -> DiagnosisResult:
        if self._result is None:
            raise RuntimeError("no measurements observed yet")
        return self._result

    @property
    def has_observations(self) -> bool:
        return self._result is not None

    @property
    def unit_looks_healthy(self) -> bool:
        return self.has_observations and self.result.is_consistent

    # ------------------------------------------------------------------
    # Candidates (evidence + experience)
    # ------------------------------------------------------------------
    def signature(self) -> SymptomSignature:
        return SymptomSignature.from_result(self.result)

    def candidates(self) -> List[Tuple[str, float]]:
        """Ranked components: ATMS suspicion boosted by learned rules.

        Scores above 1 mean past experience corroborates the evidence.
        """
        boosted = self.experience.boost_suspicions(
            self.result.suspicions, self.signature()
        )
        return sorted(boosted.items(), key=lambda kv: (-kv[1], kv[0]))

    def refinements(self, top_k: int = 5) -> List[ModeMatch]:
        """Fault-mode hypotheses for the current suspects."""
        return self.knowledge.refine(
            self.result.suspicions, self.measurements, top_k=top_k
        )

    # ------------------------------------------------------------------
    # Next test
    # ------------------------------------------------------------------
    def recommend_next(
        self, available: Optional[Sequence[str]] = None
    ) -> Optional[TestRecommendation]:
        """The §8 unit: the probe minimising expected fuzzy entropy."""
        return self.planner.best(self.result, available)

    # ------------------------------------------------------------------
    # Closure
    # ------------------------------------------------------------------
    def confirm(self, component: str, mode: str = "") -> LearnedRule:
        """The expert confirms the repair; the shop learns (§7)."""
        if component not in self.engine.circuit:
            raise KeyError(f"unknown component {component!r}")
        return self.experience.record_result(self.result, component, mode)

    def report(self, title: str = "FLAMES troubleshooting session") -> str:
        refinements = self.refinements() if not self.result.is_consistent else None
        return render_report(self.result, refinements, title=title)
