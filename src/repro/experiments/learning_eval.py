"""Learning-from-experience evaluation (paper §7).

The unit has no table in the paper; the natural measurement is whether
induced symptom-failure rules actually help later diagnoses.  The driver
replays a catalogue of fault episodes twice: first with an empty
experience base (recording each confirmed diagnosis), then again with
the learned rules active, and reports the rank of the true culprit in
the candidate ordering before and after, plus the rule certainties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.circuit.faults import Fault, FaultKind, apply_fault
from repro.circuit.library import three_stage_amplifier
from repro.circuit.measurements import probe_all
from repro.circuit.simulate import DCSolver
from repro.core.diagnosis import Flames
from repro.core.learning import ExperienceBase, SymptomSignature
from repro.experiments.runner import format_table

__all__ = ["LearningRow", "run_learning_eval", "format_learning_eval", "TRAINING_FAULTS"]

#: Episodes replayed by the evaluation (component, fault); each repeats
#: so reinforcement is visible.
TRAINING_FAULTS: Tuple[Tuple[str, Fault], ...] = (
    ("R2", Fault(FaultKind.SHORT, "R2")),
    ("R3", Fault(FaultKind.OPEN, "R3")),
    ("R6", Fault(FaultKind.OPEN, "R6")),
    ("R2", Fault(FaultKind.SHORT, "R2")),
    ("R3", Fault(FaultKind.OPEN, "R3")),
)
#: Half-width (volts) of every probe reading.
IMPRECISION = 0.02


@dataclass(frozen=True)
class LearningRow:
    fault: str
    culprit: str
    rank_before: Optional[int]
    rank_after: Optional[int]
    rule_certainty: float


def _rank_of(suspicions: Dict[str, float], culprit: str) -> Optional[int]:
    ordered = sorted(suspicions.items(), key=lambda kv: (-kv[1], kv[0]))
    for index, (name, score) in enumerate(ordered, start=1):
        if name == culprit:
            return index if score > 0 else None
    return None


def run_learning_eval() -> List[LearningRow]:
    golden = three_stage_amplifier()
    engine = Flames(golden)
    experience = ExperienceBase()

    # Phase 1: diagnose and record each confirmed episode.
    results = []
    for culprit, fault in TRAINING_FAULTS:
        op = DCSolver(apply_fault(golden, fault)).solve()
        measurements = probe_all(op, ["vs", "v2", "v1"], imprecision=IMPRECISION)
        result = engine.diagnose(measurements)
        experience.record_result(result, culprit, fault.kind.value)
        results.append((culprit, fault, result))

    # Phase 2: replay with learned rules boosting suspicions.
    rows: List[LearningRow] = []
    for culprit, fault, result in results:
        signature = SymptomSignature.from_result(result)
        before = _rank_of(result.suspicions, culprit)
        boosted = experience.boost_suspicions(result.suspicions, signature)
        after = _rank_of(boosted, culprit)
        hits = experience.suggest(signature)
        certainty = max(
            (w for rule, w in hits if rule.component == culprit), default=0.0
        )
        rows.append(
            LearningRow(fault.describe(), culprit, before, after, certainty)
        )
    return rows


def format_learning_eval(rows: List[LearningRow]) -> str:
    table = format_table(
        ["fault", "culprit", "rank before", "rank after", "rule certainty"],
        [
            (
                r.fault,
                r.culprit,
                r.rank_before if r.rank_before is not None else "-",
                r.rank_after if r.rank_after is not None else "-",
                f"{r.rule_certainty:.2f}",
            )
            for r in rows
        ],
    )
    return "learning from experience — symptom-failure rule replay\n" + table
