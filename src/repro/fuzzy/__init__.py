"""Fuzzy-arithmetic substrate for FLAMES.

The paper represents every quantity — crisp numbers, crisp intervals,
fuzzy numbers and fuzzy intervals — with a single trapezoidal 4-tuple
``[m1, m2, alpha, beta]`` (its figure 1) and computes with the
Bonissone/Decker LR arithmetic.  This package implements that
representation, the associated arithmetic, the degree-of-consistency
``Dc`` used by the conflict-recognition engine, linguistic variables for
faultiness estimation, the ``about x`` hedge of the qualitative rules,
and the fuzzy Shannon entropy used by the best-test strategy unit.
"""

from repro.fuzzy.interval import FuzzyInterval
from repro.fuzzy.compare import (
    Consistency,
    consistency,
    possibility,
    rank_key,
)
from repro.fuzzy.linguistic import LinguisticTerm, LinguisticVariable, faultiness_scale
from repro.fuzzy.entropy import fuzzy_entropy, expected_entropy
from repro.fuzzy.hedges import about

__all__ = [
    "FuzzyInterval",
    "Consistency",
    "consistency",
    "possibility",
    "rank_key",
    "LinguisticTerm",
    "LinguisticVariable",
    "faultiness_scale",
    "fuzzy_entropy",
    "expected_entropy",
    "about",
]
