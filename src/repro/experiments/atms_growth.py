"""ATMS growth study: why FLAMES reasons on nogoods, not interpretations.

"The ATMS is necessary because we entertain the possibility of multiple
faults where the space of potential candidates grows exponentially with
the number of faults under consideration" (§6).  This driver quantifies
that: over synthetic assumption sets with a fixed number of random
pairwise conflicts, it counts the *interpretations* (maximal consistent
environments — exponential in the assumption count) against the minimal
weighted nogoods and the bounded-size minimal diagnoses the engine
actually manipulates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

from repro.atms.assumptions import Assumption, Environment
from repro.atms.candidates import minimal_diagnoses
from repro.atms.interpretations import interpretations
from repro.atms.nogood import NogoodDatabase
from repro.experiments.runner import format_table

__all__ = ["GrowthRow", "run_atms_growth", "format_atms_growth"]

#: How many simultaneous conflicts the sweep considers, row by row.
CONFLICT_COUNTS = (2, 4, 6, 8, 10)
#: Assumptions in play (at least two per conflict).
ASSUMPTIONS_COUNT = 16
#: A defensive bound on the interpretation count.
INTERPRETATION_LIMIT = 100_000


@dataclass(frozen=True)
class GrowthRow:
    assumptions: int
    conflicts: int
    nogoods: int
    interpretations: int
    diagnoses_all: int
    diagnoses_serious: int
    interp_seconds: float
    diagnosis_seconds: float


def _disjoint_nogoods(
    assumptions: Sequence[Assumption], count: int
) -> NogoodDatabase:
    """``count`` pairwise conflicts over disjoint component pairs.

    Disjoint conflicts are the worst case: every combination of per-pair
    choices is a distinct candidate, so the diagnosis space is exactly
    ``2^count``.  Degrees alternate 1.0 / 0.5 so degree-thresholding has
    something to cut.
    """
    db = NogoodDatabase()
    for k in range(count):
        pair = assumptions[2 * k : 2 * k + 2]
        db.add(Environment(frozenset(pair)), 1.0 if k % 2 == 0 else 0.5)
    return db


def run_atms_growth() -> List[GrowthRow]:
    """Sweep the number of simultaneous conflicts under consideration."""
    rows: List[GrowthRow] = []
    for conflicts in CONFLICT_COUNTS:
        n = max(ASSUMPTIONS_COUNT, 2 * conflicts)
        assumptions = [Assumption(f"c{i}", f"c{i}") for i in range(n)]
        db = _disjoint_nogoods(assumptions, conflicts)

        start = time.perf_counter()
        maximal = interpretations(assumptions, db, limit=INTERPRETATION_LIMIT)
        interp_seconds = time.perf_counter() - start

        start = time.perf_counter()
        all_diagnoses = minimal_diagnoses(db.minimal(), threshold=0.0)
        serious = minimal_diagnoses(db.minimal(), threshold=0.8)
        diagnosis_seconds = time.perf_counter() - start

        rows.append(
            GrowthRow(
                assumptions=n,
                conflicts=conflicts,
                nogoods=len(db),
                interpretations=len(maximal),
                diagnoses_all=len(all_diagnoses),
                diagnoses_serious=len(serious),
                interp_seconds=interp_seconds,
                diagnosis_seconds=diagnosis_seconds,
            )
        )
    return rows


def format_atms_growth(rows: List[GrowthRow]) -> str:
    table = format_table(
        [
            "conflicts",
            "nogood list",
            "interpretations",
            "diagnoses (all)",
            "diagnoses (degree>=0.8)",
            "interp s",
            "diagnoses s",
        ],
        [
            (
                r.conflicts,
                r.nogoods,
                r.interpretations,
                r.diagnoses_all,
                r.diagnoses_serious,
                f"{r.interp_seconds:.3f}",
                f"{r.diagnosis_seconds:.4f}",
            )
            for r in rows
        ],
    )
    return (
        "ATMS growth — interpretations explode, weighted nogoods stay compact\n"
        + table
    )
