"""Multiple simultaneous faults (paper §6: "we entertain the possibility
of multiple faults where the space of potential candidates grows
exponentially with the number of faults under consideration").

The three-amplifier cascade (figure 2's circuit) has two parallel
branches off node B, so two defects — one per branch — produce two
*disjoint* minimal nogoods once B is measured healthy, and the minimal
hitting sets must pair components across branches.  The driver verifies
the candidate structure and measures how the candidate count grows with
the fault-cardinality bound — the exponential growth the ATMS is there
to manage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.circuit.faults import Fault, FaultKind, apply_faults
from repro.circuit.library import amplifier_cascade
from repro.circuit.measurements import probe_all
from repro.circuit.simulate import DCSolver
from repro.core.diagnosis import DiagnosisResult, Flames, FlamesConfig
from repro.experiments.runner import format_table

__all__ = ["MultiFaultOutcome", "run_multifault", "format_multifault"]

#: The candidate-size bounds the double defect is diagnosed under.
MAX_SIZES = (1, 2, 3)

#: The double defect: amp2's gain sags, amp3's gain rises.
DOUBLE_FAULT: Tuple[Fault, Fault] = (
    Fault(FaultKind.PARAM, "amp2", "gain", 1.4),
    Fault(FaultKind.PARAM, "amp3", "gain", 4.0),
)
#: Half-width (volts) of every probe reading.
IMPRECISION = 0.02


@dataclass
class MultiFaultOutcome:
    result: DiagnosisResult
    max_size: int

    @property
    def candidate_sets(self) -> List[Tuple[str, ...]]:
        return [d.components for d in self.result.diagnoses]

    @property
    def pair_found(self) -> bool:
        return ("amp2", "amp3") in self.candidate_sets


def run_multifault() -> List[MultiFaultOutcome]:
    """Diagnose the double defect under different cardinality bounds."""
    golden = amplifier_cascade()
    op = DCSolver(apply_faults(golden, DOUBLE_FAULT)).solve()
    measurements = probe_all(op, ["b", "c", "d"], imprecision=IMPRECISION)
    outcomes = []
    for max_size in MAX_SIZES:
        engine = Flames(golden, FlamesConfig(max_candidate_size=max_size))
        outcomes.append(
            MultiFaultOutcome(engine.diagnose(measurements), max_size)
        )
    return outcomes


def format_multifault(outcomes: List[MultiFaultOutcome]) -> str:
    rows = []
    for o in outcomes:
        rows.append(
            (
                o.max_size,
                len(o.result.diagnoses),
                "yes" if o.pair_found else "no",
                "; ".join(",".join(c) for c in o.candidate_sets[:4]) or "-",
            )
        )
    table = format_table(
        ["max faults", "candidates", "{amp2,amp3} found", "top candidate sets"],
        rows,
    )
    return (
        "multiple faults — double gain defect on the figure-2 cascade\n" + table
    )
