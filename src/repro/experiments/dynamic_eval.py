"""Dynamic-mode evaluation: faults only the step response reveals.

The paper notes FLAMES ran "either in dynamic mode or in static one"
without a table; the natural experiment is the one static diagnosis
cannot do at all.  On an RC low-pass ladder we inject capacitor faults
(open, drift) and resistor faults, then diagnose the same unit twice:

* **static** — DC probes into the ordinary engine (capacitors are open
  at the operating point, so their correctness is untestable);
* **dynamic** — five step-response samples per node into the
  envelope-based dynamic diagnoser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.circuit.faults import Fault, FaultKind, apply_fault
from repro.circuit.library import rc_lowpass
from repro.circuit.measurements import probe_all
from repro.circuit.simulate import DCSolver
from repro.circuit.transient import TransientSolver, step_waveform
from repro.core.diagnosis import Flames
from repro.core.dynamic import DynamicDiagnoser
from repro.experiments.runner import format_table

__all__ = ["DynamicRow", "run_dynamic_eval", "format_dynamic_eval", "DYNAMIC_FAULTS"]

#: The fault catalogue: two capacitor defects and one resistive control.
DYNAMIC_FAULTS: Tuple[Tuple[str, Fault], ...] = (
    ("C1 open", Fault(FaultKind.PARAM, "C1", "capacitance", 1e-12)),
    ("C2 drift +80%", Fault(FaultKind.PARAM, "C2", "capacitance", 1.8e-6)),
    ("R1 drift +50%", Fault(FaultKind.PARAM, "R1", "resistance", 1.5e3)),
)
#: RC stages of the ladder under test.
STAGES = 2
#: Transient time step and run length (seconds).
DT = 5e-5
DURATION = 5e-3
#: Half-width (volts) of every probe reading and sample.
IMPRECISION = 0.01


@dataclass(frozen=True)
class DynamicRow:
    fault: str
    static_detects: bool
    dynamic_detects: bool
    dynamic_suspects: Tuple[str, ...]
    culprit_blamed: bool


def run_dynamic_eval() -> List[DynamicRow]:
    golden = rc_lowpass(STAGES)
    waveforms = {"Vin": step_waveform(0.0, 5.0)}
    static_engine = Flames(golden)
    dynamic_engine = DynamicDiagnoser(golden, waveforms, dt=DT, duration=DURATION)
    dynamic_engine.predictions()  # build the envelopes once

    probes = [f"m{i}" for i in range(1, STAGES + 1)]
    rows: List[DynamicRow] = []
    for label, fault in DYNAMIC_FAULTS:
        faulty = apply_fault(golden, fault)
        # Static: DC probes (the step settled long ago).
        op = DCSolver(faulty).solve()
        static = static_engine.diagnose(probe_all(op, probes, imprecision=IMPRECISION))
        # Dynamic: the measured step response.
        measured = TransientSolver(
            faulty, waveforms=waveforms, dt=DT, initial="dc"
        ).run(DURATION)
        dynamic = dynamic_engine.diagnose(measured, nets=probes, imprecision=IMPRECISION)
        suspects = tuple(
            name
            for name, _ in sorted(
                dynamic.suspicions.items(), key=lambda kv: (-kv[1], kv[0])
            )
        )
        rows.append(
            DynamicRow(
                fault=label,
                static_detects=not static.is_consistent,
                dynamic_detects=not dynamic.is_consistent,
                dynamic_suspects=suspects,
                culprit_blamed=fault.component in suspects,
            )
        )
    return rows


def format_dynamic_eval(rows: List[DynamicRow]) -> str:
    table = format_table(
        ["fault", "static detects", "dynamic detects", "dynamic suspects", "culprit blamed"],
        [
            (
                r.fault,
                "yes" if r.static_detects else "NO (blind)",
                "yes" if r.dynamic_detects else "no",
                ",".join(r.dynamic_suspects) or "-",
                "yes" if r.culprit_blamed else "no",
            )
            for r in rows
        ],
    )
    return "dynamic mode — step-response diagnosis of the RC ladder\n" + table
