"""Accuracy and latency metrics for corpus runs.

All scoring consumes the machine-readable ``diagnosis_to_dict`` payload
(the shape every execution plane already emits), so the same functions
score a local harness run, a fleet batch or a server response.

Scoring rules per scenario class:

* Classes with a ground-truth defect (everything except
  ``tolerance-stackup``): the *rank of the true fault* is the best
  (lowest) 1-based position any defective component reaches in the
  suspicion ranking; ``hit@k`` is true when that rank is <= k.  Ties
  are broken deterministically (score descending, then component name),
  matching ``DiagnosisResult.ranked_components``.
* ``tolerance-stackup`` (expected empty): there is no culprit, so a run
  is correct — at every k — exactly when the engine indicts nobody with
  certainty: the unit reports consistent, or every suspicion stays
  below :data:`CERTAIN`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "CERTAIN",
    "ranking_from_payload",
    "rank_of_true_fault",
    "no_certain_culprit",
    "scenario_hit",
    "low_degree_nogoods",
]

#: Suspicion degree treated as a certain indictment (1.0 modulo float fuzz).
CERTAIN = 1.0 - 1e-9


def ranking_from_payload(diagnosis: Dict) -> List[Tuple[str, float]]:
    """Deterministic suspicion ranking from a ``diagnosis_to_dict`` payload."""
    suspicions = diagnosis.get("suspicions") or {}
    return sorted(suspicions.items(), key=lambda kv: (-kv[1], kv[0]))


def rank_of_true_fault(
    diagnosis: Dict, expected: Sequence[str]
) -> Optional[int]:
    """Best 1-based rank any truly-defective component reaches (None = unranked)."""
    if not expected:
        return None
    wanted = set(expected)
    for position, (component, _score) in enumerate(ranking_from_payload(diagnosis), 1):
        if component in wanted:
            return position
    return None


def no_certain_culprit(diagnosis: Dict) -> bool:
    """True when the engine indicts nobody with certainty (stackup scoring)."""
    if diagnosis.get("status") == "consistent":
        return True
    suspicions = diagnosis.get("suspicions") or {}
    return all(score < CERTAIN for score in suspicions.values())


def scenario_hit(expected: Sequence[str], diagnosis: Dict, k: int) -> bool:
    """Is this scenario's outcome correct at cut-off ``k``?"""
    if not expected:
        return no_certain_culprit(diagnosis)
    rank = rank_of_true_fault(diagnosis, expected)
    return rank is not None and rank <= k


def low_degree_nogoods(diagnosis: Dict) -> bool:
    """Did the run surface any *partially* inconsistent nogood (degree < 1)?

    The fuzzy-ATMS signature of an intermittent defect: mixing readings
    from the defective and healthy unit yields contradictory evidence,
    so at least one weighted nogood carries an inconsistency degree
    strictly below the hard 1.0 a persistent defect pins.
    """
    nogoods = diagnosis.get("nogoods") or []
    return any(ng.get("degree", 1.0) < CERTAIN for ng in nogoods)
