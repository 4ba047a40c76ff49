"""Fault dictionary vs model-based diagnosis (paper §2 and §7).

The paper dismisses fault dictionaries in one line; this driver measures
why.  Four defect classes on the three-stage amplifier (plus a double
fault on the cascade):

* a **tabulated** hard fault — both approaches succeed;
* a **novel drift magnitude** — the dictionary names its nearest
  tabulated entry with no confidence signal, FLAMES reports graded
  candidates containing the culprit;
* an **untabulated fault class** (a wiring open) — the dictionary has no
  entry to be right with, FLAMES implicates the correct neighbourhood;
* a **double fault** — the dictionary can only ever answer with one
  label; the hitting sets name the pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.baselines.fault_dictionary import FaultDictionary
from repro.circuit.faults import Fault, FaultKind, apply_faults
from repro.circuit.library import amplifier_cascade, three_stage_amplifier
from repro.circuit.measurements import probe_all
from repro.circuit.simulate import DCSolver
from repro.core.diagnosis import Flames, FlamesConfig
from repro.experiments.runner import format_table

__all__ = ["DictionaryRow", "run_dictionary_eval", "format_dictionary_eval"]

_PROBES = ["vs", "v2", "v1"]
#: Half-width (volts) of every probe reading.
IMPRECISION = 0.02


@dataclass(frozen=True)
class DictionaryRow:
    label: str
    culprits: Tuple[str, ...]
    dictionary_verdict: str
    dictionary_correct: bool
    flames_candidates: Tuple[str, ...]
    flames_covers: bool


def _flames_candidates(result) -> Tuple[str, ...]:
    return tuple(name for name, _ in result.ranked_components())


def run_dictionary_eval() -> List[DictionaryRow]:
    golden = three_stage_amplifier()
    dictionary = FaultDictionary(golden, _PROBES)
    engine = Flames(golden)
    rows: List[DictionaryRow] = []

    cases: Sequence[Tuple[str, Tuple[str, ...], Sequence[Fault]]] = (
        ("tabulated: short R2", ("R2",), [Fault(FaultKind.SHORT, "R2")]),
        (
            "novel drift: R3 +37%",
            ("R3",),
            [Fault(FaultKind.PARAM, "R3", value=33e3)],
        ),
        (
            "untabulated class: open node N1",
            ("T1", "R1", "R3"),  # the stage-1 wiring neighbourhood
            [Fault(FaultKind.NODE_OPEN, "T1", pin="b")],
        ),
    )
    for label, culprits, faults in cases:
        op = DCSolver(apply_faults(golden, faults)).solve()
        match = dictionary.lookup_op(op)
        verdict = (
            "healthy" if match.is_healthy else f"{match.component}:{match.mode}"
        )
        result = engine.diagnose(probe_all(op, _PROBES, imprecision=IMPRECISION))
        candidates = _flames_candidates(result)
        rows.append(
            DictionaryRow(
                label,
                culprits,
                verdict,
                match.component in culprits,
                candidates,
                any(c in candidates for c in culprits),
            )
        )

    # The double fault runs on the cascade (parallel branches).
    cascade = amplifier_cascade()
    cascade_probes = ["b", "c", "d"]
    cascade_dictionary = FaultDictionary(cascade, cascade_probes)
    cascade_engine = Flames(cascade, FlamesConfig(max_candidate_size=2))
    faulty = apply_faults(
        cascade,
        [
            Fault(FaultKind.PARAM, "amp2", "gain", 1.4),
            Fault(FaultKind.PARAM, "amp3", "gain", 4.0),
        ],
    )
    op = DCSolver(faulty).solve()
    match = cascade_dictionary.lookup_op(op)
    result = cascade_engine.diagnose(
        probe_all(op, cascade_probes, imprecision=IMPRECISION)
    )
    pair_named = any(
        set(d.components) == {"amp2", "amp3"} for d in result.diagnoses
    )
    rows.append(
        DictionaryRow(
            "double fault: amp2 low + amp3 high",
            ("amp2", "amp3"),
            f"{match.component}:{match.mode}" if not match.is_healthy else "healthy",
            False,  # one label can never name two culprits
            tuple(
                "{" + ",".join(d.components) + "}" for d in result.diagnoses[:3]
            ),
            pair_named,
        )
    )
    return rows


def format_dictionary_eval(rows: List[DictionaryRow]) -> str:
    table = format_table(
        [
            "defect",
            "true culprit(s)",
            "dictionary says",
            "dict ok",
            "FLAMES candidates",
            "FLAMES ok",
        ],
        [
            (
                r.label,
                ",".join(r.culprits),
                r.dictionary_verdict,
                "yes" if r.dictionary_correct else "NO",
                ",".join(r.flames_candidates[:6]),
                "yes" if r.flames_covers else "NO",
            )
            for r in rows
        ],
    )
    return "fault dictionary vs model-based diagnosis\n" + table
