"""Drift detection over fuzzy consistency trajectories.

The streaming session does not re-diagnose on every sample — that would
be both wasteful and noisy.  Instead every reading is scored against
the model's nominal prediction with the paper's consistency degree Dc,
and a per-net EWMA of the *discrepancy* ``1 - Dc`` tracks how far the
net has drifted from what the model database expects.  A re-diagnosis
fires when any net's EWMA crosses ``threshold``; the net then disarms
until its EWMA falls back below ``threshold - hysteresis``, so a net
hovering at the boundary triggers once instead of flapping on every
sample.

The ``stream.detector_misfire`` fault point (see
``repro.resilience.faults``) forces a spurious trigger: chaos runs use
it to prove a misfiring detector only wastes a tick — the re-diagnosis
it provokes is still correct, just unnecessary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.resilience import faults

__all__ = ["DetectorConfig", "DriftDetector", "NetState"]


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning knobs for :class:`DriftDetector`.

    Attributes:
        threshold: EWMA discrepancy level that arms a re-diagnosis
            (``1 - Dc``; 0 = perfectly consistent, 1 = fully broken).
        hysteresis: how far below ``threshold`` the EWMA must fall
            before the net may trigger again.
        alpha: EWMA smoothing factor in (0, 1]; 1 means "no smoothing,
            react to the raw sample".
    """

    threshold: float = 0.5
    hysteresis: float = 0.2
    alpha: float = 0.4

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if not 0.0 <= self.hysteresis < self.threshold:
            raise ValueError("hysteresis must be in [0, threshold)")


@dataclass
class NetState:
    """Per-net detector state."""

    ewma: float = 0.0
    primed: bool = False  # seen at least one sample
    armed: bool = True  # may trigger on the next crossing
    samples: int = 0  # observations folded in so far


@dataclass
class DriftDetector:
    """EWMA drift detector over per-net Dc trajectories."""

    config: DetectorConfig = field(default_factory=DetectorConfig)
    #: re-diagnoses requested (threshold crossings + misfires).
    fired: int = 0
    #: crossings swallowed by hysteresis (net still above threshold
    #: but already triggered and not yet re-armed).
    suppressed: int = 0
    #: spurious triggers injected by the chaos plane.
    misfires: int = 0

    def __post_init__(self) -> None:
        self._nets: Dict[str, NetState] = {}

    def observe(self, net: str, dc: float) -> bool:
        """Feed one consistency sample; True when a re-diagnosis is due.

        ``dc`` is the consistency degree of the latest reading against
        the nominal prediction, clamped into [0, 1].
        """
        discrepancy = 1.0 - min(max(dc, 0.0), 1.0)
        state = self._nets.setdefault(net, NetState())
        state.samples += 1
        if not state.primed:
            state.ewma = discrepancy
            state.primed = True
        else:
            alpha = self.config.alpha
            state.ewma = alpha * discrepancy + (1.0 - alpha) * state.ewma

        if faults.maybe_fire("stream.detector_misfire", f"{net}#{state.samples}"):
            self.misfires += 1
            self.fired += 1
            return True

        if state.ewma >= self.config.threshold:
            if state.armed:
                state.armed = False
                self.fired += 1
                return True
            self.suppressed += 1
            return False
        if state.ewma <= self.config.threshold - self.config.hysteresis:
            state.armed = True
        return False

    def drifted_nets(self) -> List[str]:
        """Nets currently at or above the trigger threshold."""
        return sorted(
            net
            for net, state in self._nets.items()
            if state.ewma >= self.config.threshold
        )
