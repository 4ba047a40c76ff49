"""Streaming diagnosis: continuous telemetry in, incremental re-diagnosis out.

FLAMES diagnoses from a fixed measurement set; this package turns it
into a long-lived monitor.  A *source* emits timestamped voltage
:class:`~repro.stream.sources.Reading` streams (recorded, or simulated
live with a fault injected mid-stream), a
*detector* watches the fuzzy consistency degree (Dc) of each net and
decides — with hysteresis — when a re-diagnosis is warranted, a
*snapshot builder* assembles the current measurement set and diffs it
against the last diagnosed one, and a
:class:`~repro.stream.session.StreamingSession` re-diagnoses each dirty
snapshot on a warm incremental engine that resumes the measurement
absorption chain from per-step checkpoints instead of re-running cold.

The server exposes the whole loop as Server-Sent Events on
``GET /v1/stream`` and the CLI as ``repro watch``.
"""

from repro.stream.detector import DetectorConfig, DriftDetector
from repro.stream.incremental import IncrementalDiagnosisEngine
from repro.stream.session import StreamingSession, StreamUpdate
from repro.stream.snapshot import Snapshot, SnapshotBuilder, SnapshotDiff
from repro.stream.sources import LiveSimulatorSource, Reading

__all__ = [
    "Reading",
    "LiveSimulatorSource",
    "DriftDetector",
    "DetectorConfig",
    "Snapshot",
    "SnapshotBuilder",
    "SnapshotDiff",
    "IncrementalDiagnosisEngine",
    "StreamingSession",
    "StreamUpdate",
]
