"""Degraded-input sanitisation — the paper's partial-conflict stance, applied to I/O.

FLAMES's fuzzy ATMS tolerates *partially* conflicting measurements
(Dc in [0, 1]) instead of failing hard; this module applies the same
philosophy one layer down, to measurements that are not merely
conflicting but *malformed*: NaN/∞ readings from a glitched instrument,
or magnitudes so far outside any electrical reality that propagating
them would only poison the constraint network.

Policy (:data:`POLICIES`):

* ``strict`` (the default everywhere) — malformed readings are an
  error: a job spec is rejected, the server answers a structured 400.
  Byte-identical to the pre-resilience engine for well-formed inputs;
* ``repair`` — the sanitizer **drops** non-finite readings, **widens**
  merely out-of-range ones (clamping the core into ``±CLAMP_ABS`` while
  stretching the slopes so the support still covers the original
  claim), and the diagnosis runs *degraded*: a well-formed ranked
  result flagged with the actions taken, mirroring how the engine
  reports partial conflict rather than refusing to answer.

The sanitizer works on raw ``(point, m1, m2, alpha, beta)`` tuples, the
form fleet jobs carry and ``repro diagnose --sanitize repair`` reads; a
constructed :class:`~repro.fuzzy.FuzzyInterval` already rejects
non-finite values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "POLICIES",
    "SanitizeAction",
    "SanitizeReport",
    "sanitize_tuples",
]

#: Recognised sanitisation policies.
POLICIES = ("strict", "repair")

#: One raw fuzzy measurement: (point, m1, m2, alpha, beta).
RawMeasurement = Tuple[str, float, float, float, float]

#: Readings whose core magnitude exceeds this are *dropped* outright —
#: no analog bench produces them, widening would swallow the whole
#: constraint network.
HARD_LIMIT = 1e9

#: Readings beyond this but under :data:`HARD_LIMIT` are *widened*:
#: clamped into range with slopes stretched to keep covering the
#: original claim (a maximally vague, still-usable observation).
CLAMP_ABS = 1e6


@dataclass(frozen=True)
class SanitizeAction:
    """One repair the sanitizer performed (JSON-safe via ``to_dict``)."""

    point: str
    action: str  # "dropped" | "widened"
    reason: str

    def to_dict(self) -> Dict[str, str]:
        return {"point": self.point, "action": self.action, "reason": self.reason}


@dataclass
class SanitizeReport:
    """What survived and what was repaired."""

    actions: List[SanitizeAction] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.actions)

    @property
    def dropped(self) -> List[str]:
        return [a.point for a in self.actions if a.action == "dropped"]

    @property
    def widened(self) -> List[str]:
        return [a.point for a in self.actions if a.action == "widened"]

    def to_dict(self) -> Dict:
        return {
            "policy": "repair",
            "actions": [a.to_dict() for a in self.actions],
            "dropped": self.dropped,
            "widened": self.widened,
        }


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _sanitize_raw(
    point: str, m1: float, m2: float, alpha: float, beta: float
) -> Tuple[Optional[RawMeasurement], Optional[SanitizeAction]]:
    """Sanitise one raw tuple; returns ``(tuple-or-None, action-or-None)``."""
    if not _finite(m1, m2, alpha, beta):
        return None, SanitizeAction(point, "dropped", "non-finite reading")
    if abs(m1) > HARD_LIMIT or abs(m2) > HARD_LIMIT:
        return None, SanitizeAction(
            point, "dropped", f"core magnitude beyond {HARD_LIMIT:g}"
        )
    if m1 > m2:
        return None, SanitizeAction(point, "dropped", "inverted core")
    if alpha < 0 or beta < 0:
        return None, SanitizeAction(point, "dropped", "negative slope width")
    action = None
    if abs(m1) > CLAMP_ABS or abs(m2) > CLAMP_ABS:
        # Clamp the core into range; stretch the slopes so the support
        # still covers the original core — vaguer, never *wrong*.
        lo, hi = m1 - alpha, m2 + beta
        m1c = min(max(m1, -CLAMP_ABS), CLAMP_ABS)
        m2c = min(max(m2, -CLAMP_ABS), CLAMP_ABS)
        alpha = max(m1c - lo, 0.0)
        beta = max(hi - m2c, 0.0)
        m1, m2 = m1c, m2c
        action = SanitizeAction(
            point, "widened", f"core clamped into ±{CLAMP_ABS:g}"
        )
    if alpha > HARD_LIMIT or beta > HARD_LIMIT:
        alpha = min(alpha, HARD_LIMIT)
        beta = min(beta, HARD_LIMIT)
        action = SanitizeAction(
            point, "widened", f"slope widths clamped to {HARD_LIMIT:g}"
        )
    return (point, m1, m2, alpha, beta), action


def sanitize_tuples(
    measurements: Sequence[RawMeasurement],
) -> Tuple[List[RawMeasurement], SanitizeReport]:
    """Sanitise raw ``(point, m1, m2, alpha, beta)`` tuples.

    Returns the surviving (possibly widened) tuples plus the report of
    every action taken.  Deterministic and order-preserving.
    """
    report = SanitizeReport()
    survivors: List[RawMeasurement] = []
    for point, m1, m2, alpha, beta in measurements:
        try:
            m1, m2, alpha, beta = float(m1), float(m2), float(alpha), float(beta)
        except (TypeError, ValueError):
            report.actions.append(
                SanitizeAction(str(point), "dropped", "non-numeric reading")
            )
            continue
        cleaned, action = _sanitize_raw(str(point), m1, m2, alpha, beta)
        if action is not None:
            report.actions.append(action)
        if cleaned is not None:
            survivors.append(cleaned)
    return survivors, report
