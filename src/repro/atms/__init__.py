"""Assumption-based truth maintenance: the kernel substrate of FLAMES.

``atms.py`` implements the classic de Kleer ATMS (nodes, justifications,
labels that are kept minimal, sound, consistent and complete, and a
nogood database).  ``fuzzy_atms.py`` extends it the way the paper's
section 6 describes: environments and nogoods carry consistency degrees
in [0, 1], justifications may be uncertain, partial conflicts weight
candidates instead of eliminating them, and clauses are not restricted
to Horn form.  ``nogood.py`` holds the weighted nogood database and
the fold that builds it from a conflict log.  ``candidates.py`` turns
minimal (weighted) nogoods into ranked minimal diagnoses via hitting
sets.
"""

from repro.atms.assumptions import Assumption, Environment
from repro.atms.nodes import Node, Justification
from repro.atms.atms import ATMS
from repro.atms.fuzzy_atms import FuzzyATMS, WeightedNogood
from repro.atms.nogood import NogoodDatabase, admitted_conflicts, fold_conflicts
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
    "Node",
    "Justification",
    "ATMS",
    "FuzzyATMS",
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
