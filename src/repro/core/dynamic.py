"""Dynamic-mode diagnosis (the paper's "dynamic mode").

Reactive components are invisible to the static engine — a capacitor is
an open circuit at the DC operating point, so its correctness cannot be
tested from DC measurements.  Dynamic mode diagnoses from the *step
response*: the model database predicts envelope waveforms (golden
transient plus one-at-a-time tolerance sensitivity, the same recipe as
:mod:`repro.core.predict` extended over time), the bench measures the
faulty unit's waveform at a handful of sample instants, and each sample
is a coincidence scored with Dc exactly as in static mode.  Conflicts
become weighted nogoods over the sample's support set through the same
fold as static mode (:func:`repro.atms.fold_conflicts`) and feed the
same candidate machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.atms import fold_conflicts, minimal_diagnoses, suspicion_scores
from repro.atms.candidates import Diagnosis
from repro.atms.nogood import WeightedNogood
from repro.circuit.netlist import Circuit
from repro.circuit.simulate import SimulationError
from repro.circuit.transient import TransientResult, TransientSolver, Waveform
from repro.core.coincidence import classify
from repro.core.predict import _fault_probes, _toleranced_parameters
from repro.fuzzy import Consistency, FuzzyInterval, consistency

__all__ = ["DynamicPrediction", "DynamicDiagnosisResult", "DynamicDiagnoser"]

#: Minimum envelope half-width (volts) — the discretisation noise floor.
ENVELOPE_FLOOR = 5e-3
#: Dc-complement below which a sample discrepancy is tolerance noise.
CONFLICT_THRESHOLD = 0.05
#: Most components in one dynamic-mode diagnosis.
MAX_CANDIDATE_SIZE = 2


@dataclass(frozen=True)
class DynamicPrediction:
    """Envelope prediction of one net's voltage at one sample instant."""

    net: str
    time: float
    value: FuzzyInterval
    support: FrozenSet[str]


@dataclass
class DynamicDiagnosisResult:
    """Outcome of a dynamic-mode diagnosis."""

    consistencies: Dict[Tuple[str, float], Consistency]
    nogoods: List[WeightedNogood]
    diagnoses: List[Diagnosis]
    suspicions: Dict[str, float]

    @property
    def is_consistent(self) -> bool:
        return not self.nogoods


class DynamicDiagnoser:
    """Step-response diagnosis of one circuit.

    Args:
        circuit: the golden design.
        waveforms: stimulus (source name -> waveform).
        dt: simulation step.
        duration: how long the response is observed; the probe instants
            are five points spread over it (skipping t=0, where every
            response trivially matches).
    """

    def __init__(
        self,
        circuit: Circuit,
        waveforms: Dict[str, Waveform],
        dt: float,
        duration: float,
    ) -> None:
        # Work on a private clone: the sensitivity sweep perturbs
        # parameters in place (with restore), and callers should never
        # observe transient mutation of their golden design.
        self.circuit = circuit.clone()
        self.waveforms = waveforms
        self.dt = dt
        self.duration = duration
        self.sample_times = [duration * k / 5.0 for k in range(1, 6)]
        self._predictions: Optional[Dict[Tuple[str, float], DynamicPrediction]] = None

    # ------------------------------------------------------------------
    def _simulate(self, circuit: Circuit) -> TransientResult:
        solver = TransientSolver(
            circuit, waveforms=self.waveforms, dt=self.dt, initial="dc"
        )
        return solver.run(self.duration)

    def simulate_golden(self) -> TransientResult:
        return self._simulate(self.circuit)

    # ------------------------------------------------------------------
    def predictions(self) -> Dict[Tuple[str, float], DynamicPrediction]:
        """Envelope per (net, sample time), with support sets."""
        if self._predictions is not None:
            return self._predictions
        golden = self._simulate(self.circuit)
        nets = [n.name for n in self.circuit.non_ground_nets]
        nominal = {
            (net, t): golden.voltage_at(net, t)
            for net in nets
            for t in self.sample_times
        }
        drops = {key: 0.0 for key in nominal}
        rises = {key: 0.0 for key in nominal}
        supports: Dict[Tuple[str, float], set] = {key: set() for key in nominal}

        for comp in self.circuit.components:
            probe_shift = {key: 0.0 for key in nominal}
            for parameter, tol_delta, probe_delta in _toleranced_parameters(comp):
                if probe_delta == 0.0:
                    continue
                scale = tol_delta / probe_delta
                base = getattr(comp, parameter)
                for sign in (+1.0, -1.0):
                    setattr(comp, parameter, base + sign * probe_delta)
                    try:
                        perturbed = self._simulate(self.circuit)
                    except SimulationError:
                        continue
                    finally:
                        setattr(comp, parameter, base)
                    for (net, t), v_nom in nominal.items():
                        shift = perturbed.voltage_at(net, t) - v_nom
                        probe_shift[(net, t)] = max(probe_shift[(net, t)], abs(shift))
                        if shift < 0:
                            drops[(net, t)] = max(drops[(net, t)], -shift * scale)
                        else:
                            rises[(net, t)] = max(rises[(net, t)], shift * scale)
            for parameter, extreme in _fault_probes(comp) + _capacitor_probes(comp):
                base = getattr(comp, parameter)
                setattr(comp, parameter, extreme)
                try:
                    perturbed = self._simulate(self.circuit)
                except SimulationError:
                    continue
                finally:
                    setattr(comp, parameter, base)
                for (net, t), v_nom in nominal.items():
                    shift = abs(perturbed.voltage_at(net, t) - v_nom)
                    probe_shift[(net, t)] = max(probe_shift[(net, t)], shift)
            for key in nominal:
                if probe_shift[key] > max(1e-3, 1e-3 * abs(nominal[key])):
                    supports[key].add(comp.name)

        self._predictions = {
            (net, t): DynamicPrediction(
                net,
                t,
                FuzzyInterval(
                    v_nom,
                    v_nom,
                    max(drops[(net, t)], ENVELOPE_FLOOR),
                    max(rises[(net, t)], ENVELOPE_FLOOR),
                ),
                frozenset(supports[(net, t)]),
            )
            for (net, t), v_nom in nominal.items()
        }
        return self._predictions

    # ------------------------------------------------------------------
    def diagnose(
        self,
        measured: TransientResult,
        nets: Optional[Sequence[str]] = None,
        imprecision: float = 0.01,
    ) -> DynamicDiagnosisResult:
        """Compare a measured step response against the envelopes."""
        predictions = self.predictions()
        probe_nets = list(nets) if nets is not None else sorted(
            {net for net, _ in predictions}
        )
        consistencies: Dict[Tuple[str, float], Consistency] = {}
        conflicts: List[Tuple[FrozenSet[str], float]] = []
        for net in probe_nets:
            for t in self.sample_times:
                prediction = predictions.get((net, t))
                if prediction is None:
                    continue
                reading = FuzzyInterval.number(measured.voltage_at(net, t), imprecision)
                cons = consistency(reading, prediction.value)
                consistencies[(net, t)] = cons
                # Conflict strength uses the two-sided coincidence rule
                # (figure 4): a reading that merely *spans* the envelope
                # (wider instrument fuzz, same centre) is not a conflict.
                conflicts.append(
                    (prediction.support, classify(reading, prediction.value).conflict_degree)
                )
        nogoods = fold_conflicts(conflicts, CONFLICT_THRESHOLD)
        return DynamicDiagnosisResult(
            consistencies=consistencies,
            nogoods=nogoods,
            diagnoses=minimal_diagnoses(
                nogoods,
                threshold=CONFLICT_THRESHOLD,
                max_size=MAX_CANDIDATE_SIZE,
            ),
            suspicions={
                a.datum: s for a, s in suspicion_scores(nogoods).items()
            },
        )


def _capacitor_probes(comp) -> List[Tuple[str, float]]:
    """Fault-class probes for capacitors (dynamic-mode only)."""
    from repro.circuit.components import Capacitor

    if isinstance(comp, Capacitor):
        return [
            ("capacitance", comp.capacitance * 1e-3),  # open-ish (tiny C)
            ("capacitance", comp.capacitance * 1e3),  # short-ish (huge C)
        ]
    return []
