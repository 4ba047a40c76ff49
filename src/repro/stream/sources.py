"""Reading sources: where the telemetry stream comes from.

A :class:`Reading` is one probe sample — net, time, crisp volts.
:class:`LiveSimulatorSource` rides on the dynamic-mode machinery of
``repro.circuit.transient``: it runs the backward-Euler solver itself
and swaps in a faulty clone of the circuit mid-stream, carrying the
capacitor state across the swap — the "unit degrades while we watch"
workload the monitoring plane exists for.

A source is any iterable of readings in non-decreasing time order (a
plain list of recorded readings works); the streaming session does not
care which kind it was handed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.circuit.components import Capacitor
from repro.circuit.faults import Fault, apply_fault
from repro.circuit.measurements import Measurement
from repro.circuit.netlist import Circuit
from repro.circuit.transient import TransientResult, TransientSolver, Waveform
from repro.fuzzy import FuzzyInterval

__all__ = ["Reading", "LiveSimulatorSource"]


@dataclass(frozen=True)
class Reading:
    """One probe sample from the unit under observation."""

    t: float
    net: str
    volts: float

    @property
    def point(self) -> str:
        """The model variable this reading observes."""
        return f"V({self.net})"

    def to_measurement(self, imprecision: float = 0.01) -> Measurement:
        """Wrap the sample with the instrument's fuzziness."""
        return Measurement(self.point, FuzzyInterval.number(self.volts, imprecision))


class LiveSimulatorSource:
    """Simulate the unit live and break it partway through.

    Runs the golden circuit up to ``fault_at``, applies ``fault`` to a
    clone, hands the clone the capacitor voltages the golden run ended
    with, and keeps going — the stream sees a healthy unit that starts
    drifting mid-observation, which is exactly the event the drift
    detector has to catch.

    With ``fault=None`` this is just a live healthy run (useful for
    flap-resistance tests: nothing should ever fire).
    """

    def __init__(
        self,
        circuit: Circuit,
        nets: Sequence[str],
        duration: float,
        dt: float = 1e-4,
        fault: Optional[Fault] = None,
        fault_at: float = 0.0,
        waveforms: Optional[Dict[str, Waveform]] = None,
        noise: float = 0.0,
        seed: int = 0,
    ) -> None:
        if duration <= 0:
            raise ValueError("duration must be positive")
        if fault is not None and not 0.0 <= fault_at < duration:
            raise ValueError("fault_at must fall inside [0, duration)")
        if not nets:
            raise ValueError("need at least one net to watch")
        if not noise >= 0.0:
            raise ValueError(f"noise must be non-negative, got {noise}")
        self.circuit = circuit
        self.nets = list(nets)
        self.duration = duration
        self.dt = dt
        self.fault = fault
        self.fault_at = fault_at
        self.waveforms = dict(waveforms or {})
        self.noise = noise
        self.seed = seed

    def _segments(self) -> List[TransientResult]:
        """The healthy prefix and (when faulted) the broken suffix."""
        if self.fault is None:
            solver = TransientSolver(self.circuit, self.waveforms, dt=self.dt)
            return [solver.run(self.duration)]
        segments: List[TransientResult] = []
        cap_state: "str | Dict[str, float]" = "dc"
        if self.fault_at > 0:
            healthy = TransientSolver(self.circuit, self.waveforms, dt=self.dt)
            prefix = healthy.run(self.fault_at)
            segments.append(prefix)
            cap_state = self._cap_voltages(prefix)
        broken_circuit = apply_fault(self.circuit, self.fault)
        broken = TransientSolver(
            broken_circuit, self.waveforms, dt=self.dt, initial=cap_state
        )
        segments.append(broken.run(self.duration - self.fault_at))
        return segments

    def _cap_voltages(self, trace: TransientResult) -> Dict[str, float]:
        op = trace.points[-1]
        return {
            c.name: op.voltage(c.net("a").name) - op.voltage(c.net("b").name)
            for c in self.circuit.components
            if isinstance(c, Capacitor)
        }

    def __iter__(self) -> Iterator[Reading]:
        rng = random.Random(self.seed)
        offset = 0.0
        for seg_index, segment in enumerate(self._segments()):
            # The first sample of a continuation segment duplicates the
            # time of the previous segment's last sample; skip it so the
            # stream stays strictly ordered per net.
            start = 1 if seg_index > 0 else 0
            for i in range(start, len(segment)):
                t = offset + segment.times[i]
                for net in self.nets:
                    volts = segment.points[i].voltage(net)
                    if self.noise:
                        volts += rng.gauss(0.0, self.noise)
                    yield Reading(t, net, volts)
            offset += segment.times[-1]
