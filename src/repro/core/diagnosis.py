"""The FLAMES engine facade.

``Flames`` ties the pieces together the way the paper's figure 3 draws
them: the model database (a circuit's constraint network), the fuzzy
ATMS kernel (weighted nogoods over component-correctness assumptions),
and the conflict-recognition engine (fuzzy propagation + Dc).  One
``diagnose`` call takes a set of measurements and returns the ranked
weighted nogoods, the component suspicions and the minimal candidate
sets, plus the per-probe consistency table that figure 7 reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    ClassVar,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.atms import WeightedNogood
from repro.atms.candidates import Diagnosis
from repro.circuit.constraints import ConstraintNetwork
from repro.circuit.measurements import Measurement
from repro.circuit.netlist import Circuit
from repro.core.conflicts import RecognizedConflict
from repro.core.model import CircuitModel
from repro.core.predict import Prediction
from repro.core.propagation import FuzzyPropagator, PropagationResult
from repro.fuzzy import Consistency, FuzzyInterval

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.runtime.context import RunContext

__all__ = ["Flames", "FlamesConfig", "DiagnosisResult", "Diagnosis"]


@dataclass(frozen=True)
class FlamesConfig:
    """Engine configuration.

    ``conflict_threshold`` filters out tolerance noise: coincidences whose
    conflict degree falls below it are not recorded as nogoods.
    ``max_candidate_size`` bounds the simultaneous-fault cardinality
    considered by the hitting-set step (the paper entertains multiple
    faults but notes the space "grows exponentially").
    ``kernel`` names the one diagnosis engine (a constant, not a knob);
    the corpus report keys its accuracy table by it.
    """

    kernel: ClassVar[str] = "reference"

    assumable_nodes: bool = False
    conflict_threshold: float = 0.05
    max_candidate_size: int = 3


@dataclass
class DiagnosisResult:
    """Everything one diagnosis run produced."""

    measurements: List[Measurement]
    predictions: Dict[str, FuzzyInterval]
    prediction_support: Dict[str, FrozenSet[str]]
    consistencies: Dict[str, Consistency]
    nogoods: List[WeightedNogood]
    diagnoses: List[Diagnosis]
    suspicions: Dict[str, float]
    conflicts: List[RecognizedConflict] = field(default_factory=list)
    propagation: Optional[PropagationResult] = None
    interrupted: bool = False
    trace: Optional[Dict[str, object]] = None

    @property
    def is_consistent(self) -> bool:
        """No conflict above the engine threshold: the unit looks healthy."""
        return not self.nogoods

    def ranked_components(self) -> List[Tuple[str, float]]:
        """(component, suspicion) pairs, most suspect first."""
        return sorted(self.suspicions.items(), key=lambda kv: (-kv[1], kv[0]))


class Flames:
    """A fuzzy-logic ATMS and model-based expert system for analog diagnosis.

    The design modes and nominal predictions come from ``model``, the
    circuit's :class:`~repro.core.model.CircuitModel`.  The fleet passes
    one shared by every job on the same netlist text; without one the
    engine builds a private model and computes everything itself.
    """

    def __init__(
        self,
        circuit: Circuit,
        config: Optional[FlamesConfig] = None,
        model: Optional[CircuitModel] = None,
    ) -> None:
        self.circuit = circuit
        self.config = config if config is not None else FlamesConfig()
        #: The circuit's model database; a private one unless shared.
        self.model = model if model is not None else CircuitModel()
        self.network = ConstraintNetwork(
            circuit, self.config.assumable_nodes, nominal_modes=self.model.design_modes(circuit)
        )
        self._nominal: Optional[Mapping[str, Prediction]] = None

    # ------------------------------------------------------------------
    # Predictions (the model database's nominal values with tolerances)
    # ------------------------------------------------------------------
    def predictions(self) -> Dict[str, FuzzyInterval]:
        """Nominal predicted value per variable (tolerances propagated)."""
        self._ensure_nominal()
        assert self._nominal is not None
        return {name: p.value for name, p in self._nominal.items()}

    def prediction_support(self) -> Dict[str, FrozenSet[str]]:
        """Components supporting each nominal prediction."""
        self._ensure_nominal()
        assert self._nominal is not None
        return {name: p.support for name, p in self._nominal.items()}

    def _ensure_nominal(self) -> bool:
        """Read the nominal predictions; True when the model already held them."""
        if self._nominal is not None:
            return True
        self._nominal, held = self.model.nominal(self.circuit)
        return held

    # ------------------------------------------------------------------
    # Diagnosis
    # ------------------------------------------------------------------
    def diagnose(
        self,
        measurements: Sequence[Measurement],
        ctx: Optional["RunContext"] = None,
    ) -> DiagnosisResult:
        """Run the full conflict-recognition + candidate-generation cycle.

        The cycle itself is :func:`repro.runtime.pipeline.diagnose`,
        decomposed into named stages.  Passing a
        ``ctx`` bounds the run (deadline / cancellation / step budget)
        and, when its tracing flag is on, collects a span tree on the
        returned result.  Without a context the call is unbounded and
        byte-identical to the pre-staged engine.
        """
        from repro.runtime import pipeline

        return pipeline.diagnose(self, measurements, ctx=ctx)

    def make_propagator(self) -> FuzzyPropagator:
        """A propagator over this engine's network.

        The pipeline's seed stage and the streaming plane's incremental
        engine (see README "Streaming mode") both build theirs here.
        """
        return FuzzyPropagator(self.network)
