"""Linguistic hedges: ``about x``.

The expert's semi-qualitative vocabulary (paper §5: "a simple while
accurate (said semi-qualitative) representation of the human
expertise") writes eyeballed magnitudes as "about 6 volts".  The
qualitative rules of :mod:`repro.core.knowledge` build their fuzzy
thresholds with :func:`about`, which keeps every hedged value a plain
:class:`FuzzyInterval`.
"""

from __future__ import annotations

from repro.fuzzy.interval import FuzzyInterval

__all__ = ["about"]


def about(value: float, spread_fraction: float = 0.1) -> FuzzyInterval:
    """``about x``: a fuzzy number with slopes a fraction of ``|x|``.

    The expert shorthand for an eyeballed magnitude (``about 6 volts``);
    zero gets a small absolute spread so the set is never degenerate.
    """
    if spread_fraction <= 0:
        raise ValueError("spread fraction must be positive")
    spread = abs(value) * spread_fraction
    if spread == 0.0:
        spread = spread_fraction
    return FuzzyInterval.number(value, spread)
