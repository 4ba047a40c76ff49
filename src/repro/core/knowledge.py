"""The knowledge-base unit: fuzzy qualitative rules and fault models (§5, §7).

Two kinds of expert knowledge refine the ATMS candidates:

* **Common fault modes** — open / short / high / low for resistors and
  the analogous modes for the other component kinds, each defined as a
  fuzzy set over the *deviation ratio* (actual / nominal parameter
  value).  Figure 7's decisive step ("considering the fault modes of the
  diode drives us to strongly suspect the resistance r2 which has to be
  very low") is fault-mode matching: hypothesise a candidate's mode,
  predict the circuit's behaviour under it, and score the match against
  the measurements with Dc.
* **Fuzzy qualitative rules** — expert rules with certainty degrees
  ("if Vbe(T) >= 0.4 then T should be ON"), applied to measured or
  derived values to adjust component estimations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.circuit.faults import Fault, FaultKind
from repro.circuit.measurements import Measurement
from repro.circuit.netlist import Circuit, Component
from repro.core.model import CircuitModel
from repro.fuzzy import FuzzyInterval, consistency

__all__ = [
    "FaultMode",
    "QualitativeRule",
    "KnowledgeBase",
    "ModeMatch",
    "common_fault_modes",
    "threshold_rule",
]

#: How far a fault-mode hypothesis's predicted voltage is widened, per
#: volt of magnitude, to absorb mode-representative imprecision (a
#: "short" hypothesis is a class of defects, not one value).
MODE_BLUR = 0.05


@dataclass(frozen=True)
class FaultMode:
    """A named common fault mode of a component kind.

    ``deviation`` is the fuzzy set of plausible actual/nominal parameter
    ratios under this mode (e.g. ``short``: ratio near 0; ``high``:
    ratio roughly in [1.15, 2]).  ``faults`` builds the concrete defects
    to hypothesise when simulating the mode for a given component — soft
    modes cover a band of deviations, so several representatives are
    simulated and the best match wins.
    """

    kind: str  # component kind the mode applies to
    name: str
    deviation: FuzzyInterval
    faults: Callable[[Component], List[Fault]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}:{self.name}"


def common_fault_modes() -> Dict[str, List[FaultMode]]:
    """The built-in fault-mode catalogue, keyed by component kind.

    Resistors get the paper's four modes (open, short, high, low);
    diodes open/short; BJTs open-junction and parameter drifts;
    amplifiers dead and gain drift.
    """

    def param(parameter: str, *ratios: float) -> Callable[[Component], List[Fault]]:
        def build(component: Component) -> List[Fault]:
            return [
                Fault(
                    FaultKind.PARAM,
                    component.name,
                    parameter,
                    getattr(component, parameter) * ratio,
                )
                for ratio in ratios
            ]

        return build

    def hard(kind: FaultKind) -> Callable[[Component], List[Fault]]:
        return lambda component: [Fault(kind, component.name)]

    return {
        "Resistor": [
            FaultMode(
                "Resistor", "open", FuzzyInterval(1e4, 1e12, 5e3, 0.0),
                hard(FaultKind.OPEN),
            ),
            FaultMode(
                "Resistor", "short", FuzzyInterval(0.0, 1e-4, 0.0, 5e-4),
                hard(FaultKind.SHORT),
            ),
            FaultMode(
                "Resistor", "high", FuzzyInterval(1.1, 2.0, 0.05, 1.0),
                param("resistance", 1.1, 1.25, 1.5, 2.0),
            ),
            FaultMode(
                "Resistor", "low", FuzzyInterval(0.5, 0.9, 0.3, 0.05),
                param("resistance", 0.9, 0.75, 0.6, 0.4),
            ),
        ],
        "Diode": [
            FaultMode(
                "Diode", "open", FuzzyInterval(1e4, 1e12, 5e3, 0.0),
                hard(FaultKind.OPEN),
            ),
            FaultMode(
                "Diode", "short", FuzzyInterval(0.0, 1e-4, 0.0, 5e-4),
                hard(FaultKind.SHORT),
            ),
        ],
        "BJT": [
            FaultMode(
                "BJT", "junction-open", FuzzyInterval(1e4, 1e12, 5e3, 0.0),
                hard(FaultKind.OPEN),
            ),
            FaultMode(
                "BJT", "beta-low", FuzzyInterval(0.1, 0.7, 0.05, 0.15),
                param("beta", 0.6, 0.4, 0.15),
            ),
            FaultMode(
                "BJT", "vbe-high", FuzzyInterval(1.05, 1.4, 0.05, 0.2),
                param("vbe_on", 1.1, 1.2, 1.35),
            ),
        ],
        "Amplifier": [
            FaultMode(
                "Amplifier", "dead", FuzzyInterval(0.0, 1e-3, 0.0, 1e-2),
                param("gain", 0.0),
            ),
            FaultMode(
                "Amplifier", "gain-low", FuzzyInterval(0.4, 0.9, 0.2, 0.1),
                param("gain", 0.85, 0.6, 0.4),
            ),
            FaultMode(
                "Amplifier", "gain-high", FuzzyInterval(1.1, 2.0, 0.05, 0.5),
                param("gain", 1.15, 1.4, 1.8),
            ),
        ],
    }


@dataclass(frozen=True)
class ModeMatch:
    """How well a hypothesised fault mode explains the measurements."""

    component: str
    mode: str
    degree: float
    per_point: Dict[str, float] = field(default_factory=dict, hash=False, compare=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.component}:{self.mode}@{self.degree:.2f}"


@dataclass(frozen=True)
class QualitativeRule:
    """A fuzzy expert rule over measured/derived values.

    ``condition`` maps probe values (name -> FuzzyInterval) to a firing
    degree in [0, 1] (0 = not applicable); ``conclusion`` names the
    implicated component, and ``certainty`` is the rule's own confidence.
    The effective weight of a firing is ``min(firing, certainty)``.
    """

    name: str
    condition: Callable[[Dict[str, FuzzyInterval]], float]
    conclusion: str
    certainty: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.certainty <= 1.0:
            raise ValueError(f"rule {self.name}: certainty outside (0, 1]")

    def fire(self, values: Dict[str, FuzzyInterval]) -> float:
        degree = self.condition(values)
        if not 0.0 <= degree <= 1.0:
            raise ValueError(f"rule {self.name}: firing degree {degree} outside [0,1]")
        return min(degree, self.certainty)


def threshold_rule(
    name: str,
    point: str,
    threshold: float,
    conclusion: str,
    above: bool = True,
    certainty: float = 1.0,
    softness: float = 0.1,
) -> QualitativeRule:
    """A fuzzy threshold rule — the paper's "If Vbe(T) >= 0.4 then ..."

    Fires to the degree the observed value at ``point`` is possibly
    above (or below) ``about(threshold)``; ``softness`` is the relative
    spread of the fuzzy threshold.  Built on the linguistic hedges so
    the rule reads the way the expert states it.
    """
    from repro.fuzzy.compare import possibility
    from repro.fuzzy.hedges import about

    fuzzy_threshold = about(threshold, spread_fraction=softness)

    def condition(values: Dict[str, FuzzyInterval]) -> float:
        observed = values.get(point)
        if observed is None:
            return 0.0
        bound = fuzzy_threshold.support[0] if above else fuzzy_threshold.support[1]
        if above:
            # Degree the observation exceeds the fuzzy threshold: how
            # possible it is that the value lies past the threshold band.
            beyond = FuzzyInterval.crisp_interval(bound, bound + 1e6)
        else:
            beyond = FuzzyInterval.crisp_interval(bound - 1e6, bound)
        return possibility(observed, beyond)

    return QualitativeRule(name, condition, conclusion, certainty)


class KnowledgeBase:
    """Fault modes + qualitative rules for one circuit.

    The fault modes are the common catalogue (:func:`common_fault_modes`).
    Hypothesised faults are simulated through ``model``, the circuit's
    :class:`~repro.core.model.CircuitModel` (a private one when none is
    passed), which keeps each result for later matches.
    """

    def __init__(self, circuit: Circuit, model: Optional[CircuitModel] = None) -> None:
        self.circuit = circuit
        self.model = model if model is not None else CircuitModel()
        self.modes = common_fault_modes()
        self.rules: List[QualitativeRule] = []

    def add_rule(self, rule: QualitativeRule) -> None:
        if rule.conclusion not in self.circuit:
            raise KeyError(f"rule concludes about unknown component {rule.conclusion!r}")
        self.rules.append(rule)

    def modes_for(self, component: Component) -> List[FaultMode]:
        return self.modes.get(component.kind, [])

    # ------------------------------------------------------------------
    # Fault-mode matching
    # ------------------------------------------------------------------
    def match_fault_modes(
        self,
        measurements: Sequence[Measurement],
        candidates: Optional[Sequence[str]] = None,
    ) -> List[ModeMatch]:
        """Score every (candidate, mode) hypothesis against the evidence.

        For each candidate component and each of its common fault modes,
        the hypothesised defect is simulated and the predicted probe
        values are compared (Dc) with the actual measurements; the match
        degree is the worst per-point consistency.  Each hypothesis
        prediction is widened by :data:`MODE_BLUR`.  Results come back
        best-explanation first.
        """
        names = list(candidates) if candidates is not None else [
            c.name for c in self.circuit.components
        ]
        matches: List[ModeMatch] = []
        for name in names:
            try:
                component = self.circuit.component(name)
            except KeyError:
                continue
            for mode in self.modes_for(component):
                best_degree = -1.0
                best_points: Dict[str, float] = {}
                for fault in mode.faults(component):
                    predicted = self.model.fault_voltages(self.circuit, fault)
                    if predicted is None:
                        continue
                    per_point: Dict[str, float] = {}
                    for m in measurements:
                        point = m.point
                        if not point.startswith("V(") or point == "V(0)":
                            continue
                        net = point[2:-1]
                        if net not in predicted:
                            continue
                        hypothesis = FuzzyInterval.number(
                            predicted[net], MODE_BLUR * (1.0 + abs(predicted[net]))
                        )
                        per_point[point] = consistency(m.value, hypothesis).degree
                    if not per_point:
                        continue
                    degree = min(per_point.values())
                    if degree > best_degree:
                        best_degree, best_points = degree, per_point
                if best_degree < 0.0:
                    continue
                matches.append(ModeMatch(name, mode.name, best_degree, best_points))
        matches.sort(key=lambda m: (-m.degree, m.component, m.mode))
        return matches

    # ------------------------------------------------------------------
    # Qualitative rules
    # ------------------------------------------------------------------
    def apply_rules(self, values: Dict[str, FuzzyInterval]) -> Dict[str, float]:
        """Fire every rule; returns accumulated implication per component."""
        implicated: Dict[str, float] = {}
        for rule in self.rules:
            weight = rule.fire(values)
            if weight <= 0.0:
                continue
            current = implicated.get(rule.conclusion, 0.0)
            implicated[rule.conclusion] = max(current, weight)
        return implicated

    # ------------------------------------------------------------------
    def refine(
        self,
        suspicions: Dict[str, float],
        measurements: Sequence[Measurement],
        top_k: int = 5,
    ) -> List[ModeMatch]:
        """Refine ATMS suspicions with fault-mode evidence.

        Only components already implicated (suspicion > 0) are
        hypothesised — the knowledge unit "should be applied only as a
        last step in order to refine candidates sets" (§7).  The returned
        matches are re-weighted by the candidate's suspicion.
        """
        implicated = [name for name, s in suspicions.items() if s > 0.0]
        matches = self.match_fault_modes(measurements, implicated)
        reweighted = [
            (
                ModeMatch(
                    m.component,
                    m.mode,
                    min(m.degree, suspicions.get(m.component, 0.0)),
                    m.per_point,
                ),
                m.degree,
            )
            for m in matches
        ]
        # Suspicion caps the weight; the raw simulation match breaks the
        # ties the cap creates (the best *explanation* leads).
        reweighted.sort(key=lambda mr: (-mr[0].degree, -mr[1], mr[0].component, mr[0].mode))
        return [m for m, _ in reweighted[:top_k]]
