"""Figure 7: the five defect scenarios on the three-stage amplifier.

The paper's table reports, per defect: the initial candidate set, the
refined candidates with degrees, and the per-probe Dc values that drove
the refinement.  Our circuit is a *reconstruction* of the partially
legible figure-6 schematic (see DESIGN.md), so two soft-fault scenarios
are re-parameterised to remain observable in the reconstructed topology
(the published drifts act on quantities our topology is first-order
insensitive to); the qualitative shape of each row — what is detected,
how Dc behaves, which stage the candidates collapse to — is what is
being reproduced:

1. **hard short in stage 1** (short R2)  — total conflicts; propagation
   of V1/V2 confines candidates to the stage-1 set; fault modes pick the
   short.
2. **stage-1 soft drift** (R3 high; paper: R2 = 12.18k) — partial
   conflicts on every probe ("thanks to Dc").
3. **stage-2 soft drift** (T2 Vbe high; paper: beta2 = 194) — V1 fully
   consistent, V2/Vs partially off, candidates shift to stage 2.
4. **open R3** — total conflicts whose *signs* are decisive ("R3 very
   high or R1 very low"; the paper's signs mirror ours because its V1 is
   an inverting collector output while ours follows the emitter).
5. **open circuit in node N1** (T1's base floats) — measuring V1 is
   decisive thanks to the transistor model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.circuit.faults import Fault, FaultKind, apply_fault
from repro.circuit.library import three_stage_amplifier
from repro.circuit.measurements import probe_all
from repro.circuit.simulate import DCSolver
from repro.core.diagnosis import DiagnosisResult, Flames
from repro.core.knowledge import KnowledgeBase, ModeMatch
from repro.experiments.runner import format_table

__all__ = ["Figure7Scenario", "Figure7Row", "FIGURE7_SCENARIOS", "run_figure7", "format_figure7"]

#: Probe points of the figure-7 table (output first, as the paper probes).
PROBES = ("V(vs)", "V(v2)", "V(v1)")
#: Half-width (volts) of every probe reading.
IMPRECISION = 0.02
#: Fault-mode refinements kept per scenario.
REFINE_TOP_K = 5


@dataclass(frozen=True)
class Figure7Scenario:
    """One defect row of the table."""

    label: str
    paper_defect: str
    fault: Fault
    expected_stage: Tuple[str, ...]  # components the row should implicate
    note: str = ""


FIGURE7_SCENARIOS: Tuple[Figure7Scenario, ...] = (
    Figure7Scenario(
        "short-R2",
        "Short circuit on R2",
        Fault(FaultKind.SHORT, "R2"),
        ("R1", "R2", "R3", "T1"),
    ),
    Figure7Scenario(
        "soft-stage1",
        "R2 slightly high (12.18k)",
        Fault(FaultKind.PARAM, "R3", value=26.4e3),
        ("R1", "R2", "R3", "T1"),
        note=(
            "re-parameterised to R3 +10%: in the reconstructed topology V1 "
            "follows the R1/R3 divider and is first-order insensitive to R2"
        ),
    ),
    Figure7Scenario(
        "soft-stage2",
        "Beta2 slightly low (194)",
        Fault(FaultKind.PARAM, "T2", "vbe_on", 0.82),
        ("T2", "R4", "R5"),
        note=(
            "re-parameterised to T2 Vbe +17%: emitter degeneration makes the "
            "reconstructed stage 2 first-order insensitive to beta2"
        ),
    ),
    Figure7Scenario(
        "open-R3",
        "Open circuit on R3",
        Fault(FaultKind.OPEN, "R3"),
        ("R1", "R3"),
        note="sign of Dc decisive; signs mirror the paper's inverting stage",
    ),
    Figure7Scenario(
        "open-N1",
        "Open circuit in N1",
        Fault(FaultKind.NODE_OPEN, "T1", pin="b"),
        ("R1", "R2", "R3", "T1"),
        note="measuring V1 is decisive thanks to the transistor model",
    ),
)


@dataclass
class Figure7Row:
    scenario: Figure7Scenario
    result: DiagnosisResult
    refinements: List[ModeMatch] = field(default_factory=list)

    @property
    def dc_cells(self) -> Dict[str, str]:
        cells = {}
        for point in PROBES:
            cons = self.result.consistencies.get(point)
            if cons is None:
                cells[point] = "-"
            else:
                arrow = {1: "^", -1: "v", 0: ""}[cons.direction]
                cells[point] = f"{cons.degree:.2f}{arrow}"
        return cells

    @property
    def candidates(self) -> Tuple[str, ...]:
        """Single-fault candidates, best first (suspicion order)."""
        return tuple(name for name, _ in self.result.ranked_components())

    @property
    def refined(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for match in self.refinements:
            if match.degree <= 0.0:
                continue
            if match.component not in seen:
                seen.append(match.component)
        return tuple(seen)


def run_figure7() -> List[Figure7Row]:
    golden = three_stage_amplifier()
    engine = Flames(golden)
    knowledge = KnowledgeBase(golden)
    rows: List[Figure7Row] = []
    for scenario in FIGURE7_SCENARIOS:
        faulty = apply_fault(golden, scenario.fault)
        op = DCSolver(faulty).solve()
        measurements = probe_all(op, ["vs", "v2", "v1"], imprecision=IMPRECISION)
        result = engine.diagnose(measurements)
        refinements = knowledge.refine(
            result.suspicions, measurements, top_k=REFINE_TOP_K
        )
        rows.append(Figure7Row(scenario, result, refinements))
    return rows


def format_figure7(rows: List[Figure7Row]) -> str:
    table_rows = []
    for row in rows:
        dc = row.dc_cells
        table_rows.append(
            (
                row.scenario.paper_defect,
                dc["V(vs)"],
                dc["V(v2)"],
                dc["V(v1)"],
                ",".join(row.candidates[:6]) or "-",
                ",".join(row.refined[:3]) or "-",
            )
        )
    table = format_table(
        ["defect (paper row)", "Dc(Vs)", "Dc(V2)", "Dc(V1)", "candidates", "refined (fault modes)"],
        table_rows,
    )
    notes = [
        f"  [{row.scenario.label}] {row.scenario.note}"
        for row in rows
        if row.scenario.note
    ]
    legend = "Dc cells: degree with ^ = measured high, v = measured low"
    return (
        "figure 7 — defect scenarios on the three-stage amplifier\n"
        + table
        + "\n"
        + legend
        + ("\nnotes:\n" + "\n".join(notes) if notes else "")
    )
