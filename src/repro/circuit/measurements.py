"""Measurements: probing the (simulated) unit under test.

A measurement is a fuzzy interval — the paper insists the imprecision of
the measuring equipment be representable separately from component
tolerances.  :func:`probe` reads a node voltage from an operating point
and wraps it with the instrument's fuzziness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.circuit.simulate import OperatingPoint
from repro.fuzzy import FuzzyInterval

__all__ = ["Measurement", "MeasurementTuple", "probe", "probe_all"]

#: One fuzzy measurement as plain data: (point, m1, m2, alpha, beta).
MeasurementTuple = Tuple[str, float, float, float, float]


@dataclass(frozen=True)
class Measurement:
    """An observed quantity: a probe point name plus its fuzzy value."""

    point: str
    value: FuzzyInterval

    @classmethod
    def from_tuple(cls, data: MeasurementTuple) -> "Measurement":
        """Build from the plain-data layout (validates the interval)."""
        point, m1, m2, alpha, beta = data
        return cls(point, FuzzyInterval(m1, m2, alpha, beta))

    def as_tuple(self) -> MeasurementTuple:
        """The plain-data layout jobs, scenarios and the sanitizer carry."""
        v = self.value
        return (self.point, v.m1, v.m2, v.alpha, v.beta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.point}={self.value!r}"


def probe(op: OperatingPoint, net: str, imprecision: float = 0.01) -> Measurement:
    """Measure the voltage of ``net`` with the given instrument imprecision.

    ``imprecision`` is the slope width, in volts, added on both sides.
    """
    return Measurement(f"V({net})", FuzzyInterval.number(op.voltage(net), imprecision))


def probe_all(
    op: OperatingPoint, nets: Sequence[str], imprecision: float = 0.01
) -> List[Measurement]:
    """Measure several nets with the same instrument."""
    return [probe(op, n, imprecision) for n in nets]
