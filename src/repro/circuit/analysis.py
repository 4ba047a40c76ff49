"""Tolerance analysis: Monte Carlo and worst-case corners.

The diagnosis engine's predictions are first-order tolerance envelopes;
this module provides the reference analyses a bench engineer would run
against them:

* :func:`monte_carlo` — sample every toleranced parameter uniformly in
  its band, solve each sample, report per-net statistics.  The test
  suite uses it to validate that the sensitivity-based fuzzy predictions
  actually contain the sampled behaviour.
* :func:`worst_case` — extreme-value analysis over tolerance corners
  (exhaustive for small circuits, one-at-a-time plus the all-extreme
  corners otherwise).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.circuit.simulate import DCSolver, SimulationError

__all__ = ["MonteCarloResult", "WorstCaseResult", "monte_carlo", "worst_case"]


def _toleranced(circuit: Circuit) -> List[Tuple[object, str, float, float]]:
    """(component, parameter, nominal, relative tolerance) to vary."""
    from repro.core.predict import _toleranced_parameters

    varied = []
    for comp in circuit.components:
        for parameter, tol_delta, _probe in _toleranced_parameters(comp):
            nominal = getattr(comp, parameter)
            if tol_delta > 0.0 and nominal != 0.0:
                varied.append((comp, parameter, nominal, tol_delta / abs(nominal)))
    return varied


@dataclass
class MonteCarloResult:
    """Per-net sample statistics over the tolerance space."""

    samples: int
    voltages: Dict[str, List[float]]
    failed: int = 0

    def mean(self, net: str) -> float:
        values = self.voltages[net]
        return sum(values) / len(values)

    def minimum(self, net: str) -> float:
        return min(self.voltages[net])

    def maximum(self, net: str) -> float:
        return max(self.voltages[net])

    def spread(self, net: str) -> float:
        return self.maximum(net) - self.minimum(net)


def monte_carlo(
    circuit: Circuit,
    samples: int = 200,
    seed: int = 0,
    nets: Optional[Sequence[str]] = None,
) -> MonteCarloResult:
    """Uniform tolerance sampling of the DC operating point.

    The circuit is perturbed in place and restored; failures to converge
    are counted, not raised.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    varied = _toleranced(circuit)
    watch = list(nets) if nets is not None else [
        n.name for n in circuit.non_ground_nets
    ]
    voltages: Dict[str, List[float]] = {net: [] for net in watch}
    failed = 0
    originals = [(comp, parameter, getattr(comp, parameter)) for comp, parameter, _, _ in varied]
    try:
        for _ in range(samples):
            for comp, parameter, nominal, tolerance in varied:
                factor = 1.0 + rng.uniform(-tolerance, tolerance)
                setattr(comp, parameter, nominal * factor)
            try:
                op = DCSolver(circuit).solve()
            except (SimulationError, ValueError):
                failed += 1
                continue
            for net in watch:
                voltages[net].append(op.voltage(net))
    finally:
        for comp, parameter, value in originals:
            setattr(comp, parameter, value)
    if failed == samples:
        raise SimulationError(f"{circuit.name}: every Monte Carlo sample failed")
    return MonteCarloResult(samples - failed, voltages, failed)


@dataclass
class WorstCaseResult:
    """Extreme values per net over the examined tolerance corners."""

    corners_examined: int
    low: Dict[str, float]
    high: Dict[str, float]

    def band(self, net: str) -> Tuple[float, float]:
        return (self.low[net], self.high[net])


def worst_case(
    circuit: Circuit,
    nets: Optional[Sequence[str]] = None,
    exhaustive_limit: int = 12,
) -> WorstCaseResult:
    """Extreme-value analysis over tolerance corners.

    With at most ``exhaustive_limit`` varied parameters every corner of
    the tolerance hypercube is solved (2^n corners); beyond that, the
    one-at-a-time corners plus the two all-extreme corners are used —
    exact for monotone responses, a recognised approximation otherwise.
    """
    varied = _toleranced(circuit)
    watch = list(nets) if nets is not None else [
        n.name for n in circuit.non_ground_nets
    ]
    low = {net: float("inf") for net in watch}
    high = {net: float("-inf") for net in watch}

    if len(varied) <= exhaustive_limit:
        corner_iter = itertools.product((-1.0, 1.0), repeat=len(varied))
    else:
        one_at_a_time: List[Tuple[float, ...]] = []
        for i in range(len(varied)):
            for sign in (-1.0, 1.0):
                corner = [0.0] * len(varied)
                corner[i] = sign
                one_at_a_time.append(tuple(corner))
        one_at_a_time.append(tuple([-1.0] * len(varied)))
        one_at_a_time.append(tuple([1.0] * len(varied)))
        corner_iter = iter(one_at_a_time)

    originals = [(comp, parameter, getattr(comp, parameter)) for comp, parameter, _, _ in varied]
    corners = 0
    try:
        for corner in corner_iter:
            for (comp, parameter, nominal, tolerance), sign in zip(varied, corner):
                setattr(comp, parameter, nominal * (1.0 + sign * tolerance))
            try:
                op = DCSolver(circuit).solve()
            except (SimulationError, ValueError):
                continue
            corners += 1
            for net in watch:
                v = op.voltage(net)
                low[net] = min(low[net], v)
                high[net] = max(high[net], v)
    finally:
        for comp, parameter, value in originals:
            setattr(comp, parameter, value)
    if corners == 0:
        raise SimulationError(f"{circuit.name}: no tolerance corner converged")
    return WorstCaseResult(corners, low, high)

