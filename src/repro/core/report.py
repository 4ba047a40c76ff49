"""Human-readable diagnosis reports.

The expert is FLAMES's final consumer (figure 3 draws the expert wired
to every unit); this module renders a :class:`DiagnosisResult` — and
optionally the knowledge-base refinement — as the kind of table the
paper's figure 7 prints.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.diagnosis import DiagnosisResult
from repro.core.knowledge import ModeMatch

__all__ = ["render_report", "render_consistency_row", "render_nogoods"]

#: Nogoods a report lists before summarising the rest.
NOGOOD_LINES = 8


def render_consistency_row(result: DiagnosisResult, points: Sequence[str]) -> str:
    """One figure-7-style line: ``Dc(point) = value`` per probe."""
    cells = []
    for point in points:
        cons = result.consistencies.get(point)
        if cons is None:
            continue
        cells.append(f"Dc({point})={cons.signed:+.2f}")
    return "  ".join(cells)


def render_nogoods(result: DiagnosisResult) -> List[str]:
    lines = []
    for nogood in result.nogoods[:NOGOOD_LINES]:
        comps = ",".join(sorted(a.datum for a in nogood.environment))
        lines.append(f"  {{{comps}}} @ {nogood.degree:.2f}")
    if len(result.nogoods) > NOGOOD_LINES:
        lines.append(f"  ... {len(result.nogoods) - NOGOOD_LINES} more")
    return lines


def render_report(
    result: DiagnosisResult,
    refinements: Optional[Sequence[ModeMatch]] = None,
    title: str = "FLAMES diagnosis",
) -> str:
    """Full multi-section text report."""
    lines = [title, "=" * len(title)]

    lines.append("measurements vs predictions:")
    for m in result.measurements:
        predicted = result.predictions.get(m.point)
        cons = result.consistencies.get(m.point)
        if predicted is None or cons is None:
            lines.append(f"  {m.point}: measured {m.value!r} (no prediction)")
            continue
        direction = {1: "high", -1: "low", 0: "ok"}[cons.direction]
        lines.append(
            f"  {m.point}: measured {m.value!r} vs predicted {predicted!r}"
            f"  Dc={cons.degree:.2f} ({direction})"
        )

    if result.is_consistent:
        lines.append("no conflicts above threshold: unit behaves nominally")
        return "\n".join(lines)

    lines.append("minimal nogoods (most serious first):")
    lines.extend(render_nogoods(result))

    lines.append("component suspicions:")
    for name, score in result.ranked_components():
        lines.append(f"  {name}: {score:.2f}")

    lines.append("minimal candidates:")
    for diag in result.diagnoses[:8]:
        comps = ",".join(diag.components)
        lines.append(f"  [{comps}] @ {diag.degree:.2f}")

    if refinements:
        lines.append("fault-mode refinement (knowledge base):")
        for match in refinements:
            lines.append(f"  {match.component} {match.mode}: {match.degree:.2f}")

    return "\n".join(lines)
