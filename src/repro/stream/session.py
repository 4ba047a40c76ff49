"""The streaming session: readings in, ranking updates out.

``StreamingSession.run()`` is a generator — the natural shape for both
the CLI (render each update as it arrives) and the SSE endpoint (frame
each update as an event).  Per reading it:

1. optionally drops the sample (the ``stream.reading_drop`` chaos
   point — lossy telemetry links are a fact of monitoring life);
2. folds it into the snapshot builder and scores it against the
   nominal prediction (the paper's Dc), feeding the drift detector;
3. when the detector fires, builds a snapshot, diffs it against the
   last diagnosed one, and — if anything is actually dirty — runs one
   incremental re-diagnosis tick under a fresh deadline-bounded
   :class:`~repro.runtime.RunContext`, yielding a
   :class:`StreamUpdate` with the new ranking.

Telemetry: counters ``stream_readings_ingested``,
``stream_readings_dropped``, ``stream_rediagnoses``,
``stream_rediagnoses_suppressed``, ``stream_ticks_incremental``,
``stream_ticks_cold``; observation ``stream_tick_ms``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Iterator, Optional, Tuple

from repro.core.diagnosis import Flames
from repro.fuzzy import consistency
from repro.resilience import faults
from repro.runtime.context import RunContext
from repro.service.telemetry import Telemetry
from repro.stream.detector import DriftDetector
from repro.stream.incremental import IncrementalDiagnosisEngine
from repro.stream.snapshot import Snapshot, SnapshotBuilder
from repro.stream.sources import Reading

__all__ = ["StreamingSession", "StreamUpdate", "check_top"]


@dataclass(frozen=True)
class StreamUpdate:
    """One re-diagnosis event emitted by a streaming session."""

    seq: int  # monotonic per session, starts at 0
    t: float  # stream time of the diagnosed snapshot
    ranking: Tuple[Tuple[str, float], ...]  # (component, suspicion), best first
    candidates: Tuple[Tuple[str, ...], ...]  # minimal diagnosis sets, best first
    dirty: Tuple[str, ...]  # points whose change triggered the tick
    drifted: Tuple[str, ...]  # nets currently above the drift threshold
    incremental: bool  # chain prefix reused (False = cold tick)
    interrupted: bool  # tick hit its deadline; ranking is partial
    consistent: bool  # no nogood above threshold — unit looks healthy
    tick_ms: float  # wall-clock cost of the re-diagnosis
    readings_seen: int  # total ingested when the tick fired

    def to_dict(self) -> dict:
        """JSON-ready shape — also the SSE ``data:`` payload."""
        return {
            "seq": self.seq,
            "t": round(self.t, 9),
            "ranking": [[c, round(s, 6)] for c, s in self.ranking],
            "candidates": [list(c) for c in self.candidates],
            "dirty": list(self.dirty),
            "drifted": list(self.drifted),
            "incremental": self.incremental,
            "interrupted": self.interrupted,
            "consistent": self.consistent,
            "tick_ms": round(self.tick_ms, 3),
            "readings_seen": self.readings_seen,
        }


def check_top(top: int) -> None:
    """How many ranked components an update carries: at least one."""
    if top < 1:
        raise ValueError(f"top must be at least 1, got {top}")


@dataclass
class StreamingSession:
    """Wire a source, a detector and a warm engine into one loop.

    Args:
        engine: the FLAMES engine for the *golden* circuit (the model
            database; the stream observes the possibly-faulty unit).
        source: any iterable of readings in non-decreasing time order.
        detector: drift detector (fresh default if omitted).
        builder: snapshot builder (fresh default if omitted).
        telemetry: counters/gauges sink (private one if omitted).
        tick_deadline: per-re-diagnosis budget in seconds (None =
            unbounded).
        top: how many ranked components each update carries.

    The first complete snapshot is always diagnosed, even if nothing has
    drifted — it gives consumers a baseline "all healthy" event to
    render before anything breaks.
    """

    engine: Flames
    source: Iterable[Reading]
    detector: DriftDetector = field(default_factory=DriftDetector)
    builder: SnapshotBuilder = field(default_factory=SnapshotBuilder)
    telemetry: Telemetry = field(default_factory=Telemetry)
    tick_deadline: Optional[float] = None
    top: int = 5

    def __post_init__(self) -> None:
        check_top(self.top)
        self._incremental = IncrementalDiagnosisEngine(self.engine)
        self._last_snapshot: Optional[Snapshot] = None
        self._seq = 0
        self._readings_seen = 0
        self._predictions = self.engine.predictions()

    # ------------------------------------------------------------------
    def run(self) -> Iterator[StreamUpdate]:
        """Consume the source; yield an update per re-diagnosis."""
        baseline_pending = True
        first_t: Optional[float] = None
        for reading in self.source:
            # Keyed per sample so a fractional drop rate thins the stream
            # instead of deleting one net wholesale.
            if faults.maybe_fire("stream.reading_drop", f"{reading.net}@{reading.t:.9f}"):
                self.telemetry.incr("stream_readings_dropped")
                continue
            self._readings_seen += 1
            self.telemetry.incr("stream_readings_ingested")
            self.builder.ingest(reading)
            if first_t is None:
                first_t = reading.t

            triggered = self._score(reading)
            force = False
            if baseline_pending and reading.t > first_t:
                # The first time frame is complete (sources emit every
                # watched net per sample): emit the baseline ranking
                # even though nothing has drifted yet.
                force, baseline_pending = True, False
            if not (triggered or force):
                continue
            update = self._tick(force=force)
            if update is not None:
                yield update

        # Source exhausted: if undiagnosed changes remain (the final
        # samples never crossed the drift threshold), one last tick
        # drains the stream so the consumer's final ranking reflects
        # every reading it was sent.
        final = self._tick(force=True)
        if final is not None:
            yield final

    # ------------------------------------------------------------------
    def _score(self, reading: Reading) -> bool:
        """Update the drift detector with this reading's Dc."""
        nominal = self._predictions.get(reading.point)
        if nominal is None:
            return False
        measurement = reading.to_measurement(self.builder.imprecision)
        dc = consistency(measurement.value, nominal).degree
        return self.detector.observe(reading.net, dc)

    def _tick(self, force: bool = False) -> Optional[StreamUpdate]:
        """One re-diagnosis attempt; None when suppressed as a no-op.

        ``force`` bypasses the detector (baseline and drain ticks), not
        the dirty gate: a tick with nothing dirty is always a no-op.
        """
        diff = self.builder.diff_against(self._last_snapshot)
        self._sync_detector_counters()
        if not diff.dirty:
            if not force:
                self.telemetry.incr("stream_rediagnoses_suppressed")
            return None

        snapshot = self.builder.build()
        ctx = RunContext.with_timeout(self.tick_deadline)
        started = perf_counter()
        result = self._incremental.diagnose(snapshot.measurements, ctx=ctx)
        elapsed_ms = (perf_counter() - started) * 1e3
        self._last_snapshot = snapshot

        stats = self._incremental.last_stats
        incremental = bool(stats and stats.incremental)
        self.telemetry.incr("stream_rediagnoses")
        self.telemetry.incr(
            "stream_ticks_incremental" if incremental else "stream_ticks_cold"
        )
        self.telemetry.observe("stream_tick_ms", elapsed_ms)
        self._sync_detector_counters()

        ranking = result.ranked_components()[: self.top]
        update = StreamUpdate(
            seq=self._seq,
            t=snapshot.t,
            ranking=tuple(ranking),
            candidates=tuple(d.components for d in result.diagnoses[: self.top]),
            dirty=tuple(sorted(diff.dirty)),
            drifted=tuple(self.detector.drifted_nets()),
            incremental=incremental,
            interrupted=result.interrupted,
            consistent=result.is_consistent,
            tick_ms=elapsed_ms,
            readings_seen=self._readings_seen,
        )
        self._seq += 1
        return update

    def _sync_detector_counters(self) -> None:
        """Mirror the detector's cumulative counters into telemetry gauges."""
        self.telemetry.gauge("stream_detector_fired", float(self.detector.fired))
        self.telemetry.gauge(
            "stream_detector_suppressed", float(self.detector.suppressed)
        )
        self.telemetry.gauge(
            "stream_detector_misfires", float(self.detector.misfires)
        )
