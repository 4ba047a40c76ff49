"""DIANA-style crisp-interval diagnosis baseline.

Same conflict-recognition machinery as FLAMES, run over crispified
values: every fuzzy interval is replaced by its support (slopes folded
into hard bounds), and the engine's conflict threshold is raised so that
only *frank* conflicts (empty intersections) yield nogoods — crisp
intervals have no notion of a partial conflict.  The comparison
benchmarks measure the two behaviours the paper attributes to this
representation:

* **masking** — a slightly faulty value inside the accumulated bounds is
  accepted, so slight soft faults disappear (figure 2's amp2 = 1.8);
* **unweighted candidates** — every nogood has degree 1, so the expert
  gets no ordering over candidates (figure 5's closing remark).
"""

from __future__ import annotations

from typing import Sequence

from repro.circuit.measurements import Measurement
from repro.circuit.netlist import Circuit
from repro.core.diagnosis import DiagnosisResult, Flames, FlamesConfig
from repro.core.predict import Prediction
from repro.fuzzy import FuzzyInterval

__all__ = ["crispify", "CrispDiagnoser"]

#: Conflicts below this degree are invisible to a crisp engine; only an
#: (almost) empty intersection counts.
_CRISP_THRESHOLD = 0.999


def crispify(value: FuzzyInterval) -> FuzzyInterval:
    """Fold a fuzzy interval's slopes into hard bounds (its support)."""
    lo, hi = value.support
    return FuzzyInterval.crisp_interval(lo, hi)


class CrispDiagnoser(Flames):
    """FLAMES's engine degraded to crisp intervals (the DIANA baseline)."""

    def __init__(self, circuit: Circuit) -> None:
        super().__init__(circuit, FlamesConfig(conflict_threshold=_CRISP_THRESHOLD))
        self._crispify_network()

    # ------------------------------------------------------------------
    def _crispify_network(self) -> None:
        """Replace every fuzzy constant inside the constraint network."""
        for constraint in self.network.constraints:
            for attribute in ("rhs", "k", "interval"):
                value = getattr(constraint, attribute, None)
                if isinstance(value, FuzzyInterval):
                    setattr(constraint, attribute, crispify(value))

    def _ensure_nominal(self) -> bool:
        held = super()._ensure_nominal()
        self._nominal = {
            name: Prediction(crispify(p.value), p.support)
            for name, p in self._nominal.items()
        }
        return held

    # ------------------------------------------------------------------
    def diagnose(self, measurements: Sequence[Measurement]) -> DiagnosisResult:
        """Diagnose with crispified measurements (instrument bounds only)."""
        crisp_measurements = [
            Measurement(m.point, crispify(m.value)) for m in measurements
        ]
        return super().diagnose(crisp_measurements)
