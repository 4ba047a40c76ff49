"""Figure 2: crisp vs fuzzy propagation through the amplifier cascade.

Two parts, both straight from §4.2:

* **Propagation table** — input A drives amp1 (gain 1) to produce B;
  amp2 (gain 2) and amp3 (gain 3) read B to produce C and D.  Case (1)
  starts from the crisp interval ``Va = [2.95, 3.05]``, case (2) from
  the fuzzy number ``Va = [3, 3, .05, .05]``.  The table reports the
  propagated ``Vb``, ``Vc``, ``Vd``.
* **Masking demonstration** — amp2 drifts to 1.8 and ``Vc`` is measured
  at 5.6: backward propagation with crisp intervals lands the inferred
  ``Va`` inside the measured input interval, masking the fault; with
  fuzzy intervals the same inference carries a low membership degree,
  exposing "that there is a problem".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.baselines.crisp_interval import Interval
from repro.experiments.runner import format_table
from repro.fuzzy import FuzzyInterval, consistency

__all__ = ["run_figure2", "run_figure2_masking", "format_figure2"]

#: The paper's amplifiers: gains 1/2/3, each with an absolute 0.05 spread.
GAINS = (1.0, 2.0, 3.0)
SPREAD = 0.05
#: The masking demonstration: amp2's faulty gain and the Vc it produces.
FAULTY_GAIN = 1.8
MEASURED_VC = 5.6


@dataclass(frozen=True)
class PropagationRow:
    quantity: str
    crisp_case: FuzzyInterval
    fuzzy_case: FuzzyInterval


@dataclass(frozen=True)
class MaskingOutcome:
    """Backward inference of Va from a faulty measured Vc."""

    representation: str
    inferred_va: FuzzyInterval
    measured_va: FuzzyInterval
    consistency_degree: float
    fault_masked: bool


def _amps() -> List[FuzzyInterval]:
    return [FuzzyInterval.number(g, SPREAD) for g in GAINS]


def run_figure2() -> List[PropagationRow]:
    """The propagated Vb/Vc/Vd for both input representations."""
    amp1, amp2, amp3 = _amps()
    rows = []
    for label, va in (
        ("crisp", FuzzyInterval.crisp_interval(2.95, 3.05)),
        ("fuzzy", FuzzyInterval.number(3.0, SPREAD)),
    ):
        vb = va * amp1
        vc = vb * amp2
        vd = vb * amp3
        rows.append((label, vb, vc, vd))
    crisp, fuzzy = rows
    return [
        PropagationRow("Vb", crisp[1], fuzzy[1]),
        PropagationRow("Vc", crisp[2], fuzzy[2]),
        PropagationRow("Vd", crisp[3], fuzzy[3]),
    ]


def run_figure2_masking() -> List[MaskingOutcome]:
    """The crisp-masks / fuzzy-exposes comparison.

    Backward inference follows the paper: ``Vb = Vc / gain2``, ``Va =
    Vb / gain1`` (gains at their *faulty-case* values for Vb — the paper
    shows what the measurement implies — then tolerance bands for Va).
    """
    outcomes = []
    # Crisp representation: measured Vc is a point; amp gains are bands.
    vb_crisp = Interval.point(MEASURED_VC) / Interval.point(FAULTY_GAIN)
    va_crisp = vb_crisp / Interval(GAINS[0] - SPREAD, GAINS[0] + SPREAD)
    measured_va_crisp = Interval(2.95, 3.05)
    masked = va_crisp.intersects(measured_va_crisp)
    outcomes.append(
        MaskingOutcome(
            "crisp",
            va_crisp.to_fuzzy(),
            measured_va_crisp.to_fuzzy(),
            1.0 if masked else 0.0,
            masked,
        )
    )
    # Fuzzy representation: the same chain with membership degrees.
    vb_fuzzy = FuzzyInterval.crisp(MEASURED_VC) / FuzzyInterval.crisp(FAULTY_GAIN)
    va_fuzzy = vb_fuzzy / FuzzyInterval.number(GAINS[0], SPREAD)
    measured_va_fuzzy = FuzzyInterval.number(3.0, SPREAD)
    degree = consistency(measured_va_fuzzy, va_fuzzy).degree
    outcomes.append(
        MaskingOutcome(
            "fuzzy",
            va_fuzzy,
            measured_va_fuzzy,
            degree,
            degree >= 1.0,
        )
    )
    return outcomes


def format_figure2() -> str:
    rows = run_figure2()
    table = format_table(
        ["quantity", "crisp input [2.95,3.05]", "fuzzy input [3,3,.05,.05]"],
        [(r.quantity, repr(r.crisp_case), repr(r.fuzzy_case)) for r in rows],
    )
    masking = run_figure2_masking()
    masking_table = format_table(
        ["representation", "inferred Va", "measured Va", "consistency", "fault masked"],
        [
            (
                m.representation,
                repr(m.inferred_va),
                repr(m.measured_va),
                f"{m.consistency_degree:.2f}",
                "yes" if m.fault_masked else "NO — fault exposed",
            )
            for m in masking
        ],
    )
    return (
        "figure 2 — propagation through the cascade\n"
        + table
        + "\n\nfigure 2 — amp2=1.8 masking demonstration\n"
        + masking_table
    )
