"""Snapshots: the measurement set the stream believes *right now*.

The session diagnoses snapshots, not readings.  A
:class:`SnapshotBuilder` folds the latest reading per net into a
current-state map; :meth:`SnapshotBuilder.build` freezes it into a
:class:`Snapshot`, and :func:`Snapshot.diff` against the previously
diagnosed snapshot yields exactly which points changed — the dirty set
the incremental engine uses to decide how much of its checkpoint chain
survives.

Readings are noisy, so "changed" is tolerance-gated: a point is dirty
only when its crisp reading moved by more than ``epsilon`` volts since
it was last diagnosed.  Without the gate, every nanovolt of instrument
noise would invalidate the chain suffix and the incremental path would
degenerate to cold re-runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.circuit.measurements import Measurement
from repro.stream.sources import Reading

__all__ = ["Snapshot", "SnapshotBuilder", "SnapshotDiff"]


@dataclass(frozen=True)
class SnapshotDiff:
    """Which measurement points moved between two snapshots."""

    changed: FrozenSet[str]  # present in both, value moved beyond epsilon
    added: FrozenSet[str]  # new points
    removed: FrozenSet[str]  # points that vanished

    @property
    def dirty(self) -> FrozenSet[str]:
        """Every point whose assertion must be redone."""
        return self.changed | self.added

    def __bool__(self) -> bool:
        return bool(self.changed or self.added or self.removed)


@dataclass(frozen=True)
class Snapshot:
    """A frozen measurement set with its assembly time."""

    t: float
    #: point name -> (crisp reading, fuzzy measurement)
    readings: "Tuple[Tuple[str, float], ...]"
    measurements: Tuple[Measurement, ...]

    @property
    def points(self) -> FrozenSet[str]:
        return frozenset(p for p, _ in self.readings)

    def diff(self, newer: "Snapshot", epsilon: float = 0.0) -> SnapshotDiff:
        """What changed from this snapshot to ``newer``."""
        mine = dict(self.readings)
        theirs = dict(newer.readings)
        changed = frozenset(
            p
            for p, volts in theirs.items()
            if p in mine and abs(volts - mine[p]) > epsilon
        )
        return SnapshotDiff(
            changed=changed,
            added=frozenset(theirs) - frozenset(mine),
            removed=frozenset(mine) - frozenset(theirs),
        )


@dataclass
class SnapshotBuilder:
    """Accumulate readings; emit frozen snapshots on demand.

    Attributes:
        imprecision: instrument fuzziness wrapped around each crisp
            reading when the snapshot's measurements are built.
        epsilon: the dirty gate — see the module docstring.
    """

    imprecision: float = 0.01
    epsilon: float = 0.0
    _latest: Dict[str, Reading] = field(default_factory=dict)
    _clock: float = 0.0

    def __post_init__(self) -> None:
        if not self.imprecision >= 0.0:
            raise ValueError(f"imprecision must be non-negative, got {self.imprecision}")
        if not self.epsilon >= 0.0:
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon}")

    def ingest(self, reading: Reading) -> None:
        self._latest[reading.point] = reading
        self._clock = max(self._clock, reading.t)

    @property
    def points(self) -> List[str]:
        return sorted(self._latest)

    def build(self) -> Snapshot:
        """Freeze the current state (points in sorted order)."""
        points = self.points
        return Snapshot(
            t=self._clock,
            readings=tuple((p, self._latest[p].volts) for p in points),
            measurements=tuple(
                self._latest[p].to_measurement(self.imprecision) for p in points
            ),
        )

    def diff_against(self, last: Optional[Snapshot]) -> SnapshotDiff:
        """Diff the *current* state against the last diagnosed snapshot."""
        current = self.build()
        if last is None:
            return SnapshotDiff(
                changed=frozenset(),
                added=current.points,
                removed=frozenset(),
            )
        return last.diff(current, epsilon=self.epsilon)
