"""Fuzzy connectives: t-norms, t-conorms, negation and implication.

FLAMES combines degrees in several places — the validity of a model
guarded by several fuzzy assumptions, the certainty of a qualitative
rule firing, the degree of a nogood built from a chain of fuzzy
propagations.  All of these reduce to conjunction/disjunction of degrees
in [0, 1]; this module provides the standard families so the choice is a
single parameter (``repro.atms.ATMS(t_norm=...)``).
"""

from __future__ import annotations

from typing import Callable, Iterable

__all__ = [
    "TNorm",
    "TCoNorm",
    "t_norm_min",
    "t_norm_product",
    "t_norm_lukasiewicz",
    "s_norm_max",
    "s_norm_probabilistic",
    "s_norm_lukasiewicz",
    "negation",
    "implication_kleene_dienes",
    "implication_lukasiewicz",
    "implication_goedel",
    "fold",
    "T_NORMS",
    "S_NORMS",
]

#: A binary conjunction on degrees in [0, 1].
TNorm = Callable[[float, float], float]
#: A binary disjunction on degrees in [0, 1].
TCoNorm = Callable[[float, float], float]


def _check(x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"degree {x} outside [0, 1]")
    return x


def t_norm_min(a: float, b: float) -> float:
    """Goedel (minimum) t-norm — the paper's default conjunction."""
    return min(_check(a), _check(b))


def t_norm_product(a: float, b: float) -> float:
    """Product t-norm."""
    return _check(a) * _check(b)


def t_norm_lukasiewicz(a: float, b: float) -> float:
    """Lukasiewicz t-norm ``max(0, a + b - 1)``."""
    return max(0.0, _check(a) + _check(b) - 1.0)


def s_norm_max(a: float, b: float) -> float:
    """Maximum t-conorm — the paper's default disjunction."""
    return max(_check(a), _check(b))


def s_norm_probabilistic(a: float, b: float) -> float:
    """Probabilistic sum ``a + b - a*b``."""
    return _check(a) + _check(b) - a * b


def s_norm_lukasiewicz(a: float, b: float) -> float:
    """Bounded sum ``min(1, a + b)``."""
    return min(1.0, _check(a) + _check(b))


def negation(a: float) -> float:
    """Standard fuzzy negation ``1 - a``."""
    return 1.0 - _check(a)


def implication_kleene_dienes(a: float, b: float) -> float:
    """``max(1 - a, b)`` — material implication with standard negation."""
    return max(negation(a), _check(b))


def implication_lukasiewicz(a: float, b: float) -> float:
    """``min(1, 1 - a + b)``."""
    return min(1.0, 1.0 - _check(a) + _check(b))


def implication_goedel(a: float, b: float) -> float:
    """``1 if a <= b else b`` (residuum of the minimum t-norm)."""
    return 1.0 if _check(a) <= _check(b) else _check(b)


def fold(op: Callable[[float, float], float], degrees: Iterable[float], empty: float) -> float:
    """Fold a (co)norm over arbitrarily many degrees.

    ``empty`` is the neutral element returned for an empty sequence: 1 for
    t-norms, 0 for t-conorms.
    """
    result = empty
    seen = False
    for d in degrees:
        if not seen:
            result, seen = _check(d), True
        else:
            result = op(result, d)
    return result


#: Named registries used by the ablation drivers.
T_NORMS = {
    "min": t_norm_min,
    "product": t_norm_product,
    "lukasiewicz": t_norm_lukasiewicz,
}

S_NORMS = {
    "max": s_norm_max,
    "probabilistic": s_norm_probabilistic,
    "lukasiewicz": s_norm_lukasiewicz,
}
