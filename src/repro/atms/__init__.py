"""Assumption-based nogood reasoning: the kernel substrate of FLAMES.

``assumptions.py`` holds the ``ok(component)`` assumptions and the
environments built from them.  ``nogood.py`` holds the weighted nogood
database (paper section 6: a frank conflict records a nogood of degree
1, a partial one a nogood of degree ``1 - Dc`` that ranks candidates
without pruning them) and :func:`fold_conflicts`, the one place a
conflict log becomes minimal nogoods.  ``candidates.py`` turns those
nogoods into ranked minimal diagnoses via hitting sets, and
``interpretations.py`` enumerates the maximal consistent environments
that the ATMS-growth study contrasts with them.

The engine never builds ATMS labels: with every assumption at degree 1
the fold gives exactly what de Kleer's label-weaving ATMS, extended for
weighted nogoods, would.  That ATMS is kept under ``tests/atms/`` as
the oracle the fold is compared against.
"""

from repro.atms.assumptions import Assumption, Environment
from repro.atms.nogood import (
    NogoodDatabase,
    WeightedNogood,
    admitted_conflicts,
    fold_conflicts,
)
from repro.atms.candidates import (
    Diagnosis,
    minimal_hitting_sets,
    minimal_diagnoses,
    suspicion_scores,
)
from repro.atms.interpretations import interpretations

__all__ = [
    "Assumption",
    "Environment",
    "WeightedNogood",
    "NogoodDatabase",
    "admitted_conflicts",
    "fold_conflicts",
    "Diagnosis",
    "minimal_hitting_sets",
    "minimal_diagnoses",
    "suspicion_scores",
    "interpretations",
]
