"""The classic fault-dictionary baseline (paper §7's foil).

"As regards to fault modes, our intention is not to define a fault
dictionary" — because dictionaries only recognise the faults someone
simulated in advance.  This module implements that pre-FLAMES approach
faithfully so the comparison can be measured: every (component, mode)
hypothesis is simulated once, its probe signature stored, and diagnosis
is nearest-signature lookup.  Its characteristic failure — an *unlisted*
fault (a drift magnitude nobody tabulated, a double fault) matches the
wrong entry with full confidence — is what the model-based engine's
graceful degradation is measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit
from repro.circuit.simulate import DCSolver, OperatingPoint
from repro.core.model import CircuitModel

__all__ = ["DictionaryEntry", "DictionaryMatch", "FaultDictionary", "dictionary_faults"]

#: RMS distance (volts) from the healthy signature within which a unit
#: is declared healthy.
HEALTHY_MARGIN = 0.05


def dictionary_faults(circuit: Circuit) -> List[Tuple[str, str, Fault]]:
    """The tabulated hypotheses: every component's common fault modes.

    One representative defect per (component, mode) — what a dictionary
    builder of the era would simulate.  Reuses the knowledge base's mode
    catalogue so both approaches start from the same fault universe.
    """
    from repro.core.knowledge import common_fault_modes

    catalogue = common_fault_modes()
    tabulated: List[Tuple[str, str, Fault]] = []
    for comp in circuit.components:
        for mode in catalogue.get(comp.kind, []):
            representatives = mode.faults(comp)
            if representatives:
                tabulated.append((comp.name, mode.name, representatives[0]))
    return tabulated


@dataclass(frozen=True)
class DictionaryEntry:
    """One tabulated fault: its label and probe signature."""

    component: str
    mode: str
    signature: Tuple[float, ...]


@dataclass(frozen=True)
class DictionaryMatch:
    """Nearest-entry lookup result."""

    component: str
    mode: str
    distance: float

    @property
    def is_healthy(self) -> bool:
        return self.component == ""


class FaultDictionary:
    """Signature table built by exhaustive fault simulation.

    Args:
        circuit: the golden design.
        probes: nets whose voltages form the signature.

    The table holds :func:`dictionary_faults`, the common catalogue over
    every component.
    """

    def __init__(self, circuit: Circuit, probes: Sequence[str]) -> None:
        self.circuit = circuit
        self.probes = list(probes)
        self.entries: List[DictionaryEntry] = []
        self._build()

    def _signature(self, voltages: Mapping[str, float]) -> Tuple[float, ...]:
        return tuple(0.0 if net == "0" else voltages[net] for net in self.probes)

    def _build(self) -> None:
        self.healthy_signature = self._signature(DCSolver(self.circuit).solve().voltages)
        model = CircuitModel()
        for component, mode, fault in dictionary_faults(self.circuit):
            voltages = model.fault_voltages(self.circuit, fault)
            if voltages is not None:
                self.entries.append(DictionaryEntry(component, mode, self._signature(voltages)))

    def __len__(self) -> int:
        return len(self.entries)

    # ------------------------------------------------------------------
    def lookup(self, readings: Sequence[float]) -> DictionaryMatch:
        """Nearest tabulated signature to the measured one.

        Within :data:`HEALTHY_MARGIN` of the healthy signature the unit
        is declared healthy instead.  This is the whole diagnostic
        procedure — no reasoning, no degrees, no explanation.
        """
        if len(readings) != len(self.probes):
            raise ValueError(
                f"expected {len(self.probes)} readings, got {len(readings)}"
            )
        healthy_distance = _rms(readings, self.healthy_signature)
        if healthy_distance <= HEALTHY_MARGIN:
            return DictionaryMatch("", "", healthy_distance)
        best: Optional[DictionaryMatch] = None
        for entry in self.entries:
            distance = _rms(readings, entry.signature)
            if best is None or distance < best.distance:
                best = DictionaryMatch(entry.component, entry.mode, distance)
        if best is None or healthy_distance < best.distance:
            return DictionaryMatch("", "", healthy_distance)
        return best

    def lookup_op(self, op: OperatingPoint) -> DictionaryMatch:
        return self.lookup(self._signature(op.voltages))


def _rms(a: Sequence[float], b: Sequence[float]) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)) / max(len(a), 1))
