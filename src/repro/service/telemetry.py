"""Lightweight structured telemetry for the fleet service.

The single-session reproduction never needed to answer "where does the
time go?"; a throughput-oriented service does.  :class:`Telemetry`
collects three cheap primitives behind one lock:

* **counters** — monotonically increasing totals (jobs run, cache
  hits, retries, nogoods found, ...);
* **gauges** — last-written current values (active streams, chain
  length, ...): ``gauge()`` overwrites where ``incr()`` accumulates;
* **observations** — value streams summarised as count/total/min/max
  plus p50/p95/p99 percentiles over a bounded reservoir of recent
  values (per-job wall-clock, per-endpoint latency, ...);
* **phases** — wall-clock accumulated per named pipeline stage
  (hash, cache, execute, merge);

plus a bounded **event log** of structured dicts for per-job forensics.
``snapshot()`` returns everything as plain data (JSON-safe);
``summary()`` renders the human-readable digest the batch CLI prints.

Cluster aggregation: ``snapshot(samples=True)`` includes each
observation stream's raw percentile reservoir, and
:meth:`Telemetry.merge` folds a set of such snapshots (one per replica)
into a single fleet-wide snapshot — counters and phase times summed,
observation percentiles recomputed from the *combined* reservoirs.
Merging always starts from the replicas' latest cumulative snapshots,
so polling repeatedly never double-counts.

Phases are measured with the same :class:`~repro.runtime.spans.Span`
primitive the engine's :class:`~repro.runtime.context.RunContext` uses,
and :meth:`Telemetry.record_trace` folds an engine span tree into the
phase table under dotted ``engine.<stage>`` names — one timing
mechanism from the propagator's fixpoint up to ``/metrics``.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

from repro.runtime.spans import Span

__all__ = ["Telemetry", "percentile"]

#: Percentiles reported for every observation stream.
PERCENTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))

#: Bound of the structured event log (and of a merged snapshot's).
MAX_EVENTS = 256

#: How many recent values each observation stream keeps for percentile
#: estimation; count/total/min/max stay exact over the full stream.
RESERVOIR = 512


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted, non-empty list."""
    if not sorted_values:
        raise ValueError("percentile of an empty stream")
    rank = max(0, min(len(sorted_values) - 1, round(q * len(sorted_values)) - 1))
    return sorted_values[rank]


class Telemetry:
    """Thread-safe counters, value summaries, phase timers, event log."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._observations: Dict[str, List[float]] = {}  # [count, total, min, max]
        self._samples: Dict[str, "deque[float]"] = {}  # recent values per stream
        self._phases: Dict[str, List[float]] = {}  # [seconds, entries]
        self._events: "deque[Dict]" = deque(maxlen=MAX_EVENTS)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def incr(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge to its current value (overwrites, never sums)."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            stats = self._observations.get(name)
            if stats is None:
                self._observations[name] = [1, value, value, value]
                self._samples[name] = deque([value], maxlen=RESERVOIR)
            else:
                stats[0] += 1
                stats[1] += value
                stats[2] = min(stats[2], value)
                stats[3] = max(stats[3], value)
                self._samples[name].append(value)

    @contextmanager
    def phase(self, name: str) -> Iterator[Span]:
        """Accumulate the wall-clock spent inside the ``with`` block.

        Measured with a :class:`Span` — the same primitive engine traces
        use — which the block may annotate via ``span.meta``.
        """
        span = Span(name=name)
        span.begin()
        try:
            yield span
        finally:
            span.finish()
            self.record_span(span)

    def record_span(self, span: Span, prefix: str = "") -> None:
        """Fold one finished span (and its subtree) into the phase table."""
        name = f"{prefix}.{span.name}" if prefix else span.name
        with self._lock:
            bucket = self._phases.setdefault(name, [0.0, 0])
            bucket[0] += span.seconds
            bucket[1] += 1
        for child in span.children:
            self.record_span(child, prefix=name)

    def record_trace(self, trace: Optional[Dict]) -> None:
        """Fold an engine trace (``RunContext.trace()`` dict) into the phases.

        Stage timings land under dotted names (``engine.diagnose.propagate``
        ...), so per-stage engine time surfaces in ``/metrics`` and the
        batch digest with no second bookkeeping path.
        """
        if not trace:
            return
        for span_dict in trace.get("spans", ()):
            self.record_span(Span.from_dict(span_dict), prefix="engine")

    def event(self, kind: str, **fields: object) -> None:
        """Append one structured event (oldest events roll off)."""
        entry = {"kind": kind}
        entry.update(fields)
        with self._lock:
            self._events.append(entry)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def _observation_entry(self, name: str, samples: bool = False) -> Dict:
        c, t, lo, hi = self._observations[name]
        entry = {
            "count": int(c),
            "total": t,
            "mean": t / c if c else 0.0,
            "min": lo,
            "max": hi,
        }
        ordered = sorted(self._samples.get(name, ()))
        if ordered:
            for label, q in PERCENTILES:
                entry[label] = percentile(ordered, q)
        if samples:
            entry["samples"] = list(self._samples.get(name, ()))
        return entry

    def snapshot(self, samples: bool = False) -> Dict:
        """Everything as a JSON-safe dict.

        ``samples=True`` includes each observation's raw reservoir under
        ``"samples"`` so an aggregator (the cluster gateway) can merge
        percentiles across processes instead of averaging averages.
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "observations": {
                    name: self._observation_entry(name, samples=samples)
                    for name in self._observations
                },
                "phases": {
                    name: {"seconds": secs, "entries": int(n)}
                    for name, (secs, n) in self._phases.items()
                },
                "events": list(self._events),
            }

    @staticmethod
    def merge(snapshots: "Sequence[Dict]") -> Dict:
        """Fold telemetry snapshots from several processes into one.

        Input snapshots are cumulative per source (each replica's
        counters only grow), so aggregating the *latest* snapshot per
        source — what the gateway's ``/metrics`` does — never double
        counts.  Counters and phase accumulators are summed.  Gauges
        are summed too: each source's gauge is its *current* value, so
        the fleet-wide current value of e.g. ``streams_active`` is the
        sum over replicas (a fleet "last write wins" would be
        meaningless across processes);
        observation streams combine count/total/min/max exactly and
        recompute p50/p95/p99 from the concatenated reservoirs when the
        sources were snapshotted with ``samples=True`` (percentiles are
        omitted otherwise — merging per-source percentiles would be
        statistically meaningless).  Events interleave in input order,
        bounded by :data:`MAX_EVENTS`.
        """
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        observations: Dict[str, Dict] = {}
        reservoirs: Dict[str, List[float]] = {}
        sampled: Dict[str, bool] = {}
        phases: Dict[str, List[float]] = {}
        events: List[Dict] = []
        for snap in snapshots:
            if not snap:
                continue
            for name, value in (snap.get("counters") or {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, value in (snap.get("gauges") or {}).items():
                gauges[name] = gauges.get(name, 0.0) + value
            for name, obs in (snap.get("observations") or {}).items():
                merged = observations.get(name)
                if merged is None:
                    merged = observations[name] = {
                        "count": 0, "total": 0.0,
                        "min": obs["min"], "max": obs["max"],
                    }
                    sampled[name] = True
                merged["count"] += int(obs.get("count", 0))
                merged["total"] += float(obs.get("total", 0.0))
                merged["min"] = min(merged["min"], obs["min"])
                merged["max"] = max(merged["max"], obs["max"])
                if "samples" in obs:
                    reservoirs.setdefault(name, []).extend(obs["samples"])
                else:
                    sampled[name] = False
            for name, info in (snap.get("phases") or {}).items():
                bucket = phases.setdefault(name, [0.0, 0])
                bucket[0] += float(info.get("seconds", 0.0))
                bucket[1] += int(info.get("entries", 0))
            events.extend(snap.get("events") or ())
        for name, merged in observations.items():
            merged["mean"] = merged["total"] / merged["count"] if merged["count"] else 0.0
            ordered = sorted(reservoirs.get(name, ())) if sampled.get(name) else []
            if ordered:
                for label, q in PERCENTILES:
                    merged[label] = percentile(ordered, q)
        return {
            "counters": counters,
            "gauges": gauges,
            "observations": observations,
            "phases": {
                name: {"seconds": secs, "entries": int(n)}
                for name, (secs, n) in phases.items()
            },
            "events": events[-MAX_EVENTS:],
        }

    def summary(self, title: str = "telemetry") -> str:
        """Human-readable digest (counters, phase times, observations)."""
        snap = self.snapshot()
        lines = [title, "-" * len(title)]
        if snap["counters"]:
            lines.append("counters:")
            for name in sorted(snap["counters"]):
                value = snap["counters"][name]
                shown = int(value) if float(value).is_integer() else round(value, 4)
                lines.append(f"  {name}: {shown}")
        if snap.get("gauges"):
            lines.append("gauges:")
            for name in sorted(snap["gauges"]):
                value = snap["gauges"][name]
                shown = int(value) if float(value).is_integer() else round(value, 4)
                lines.append(f"  {name}: {shown}")
        if snap["phases"]:
            lines.append("phases (wall-clock):")
            for name, info in snap["phases"].items():
                lines.append(f"  {name}: {info['seconds']:.3f}s over {info['entries']} entries")
        if snap["observations"]:
            lines.append("observations:")
            for name in sorted(snap["observations"]):
                o = snap["observations"][name]
                line = (
                    f"  {name}: n={o['count']} mean={o['mean']:.4g} "
                    f"min={o['min']:.4g} max={o['max']:.4g}"
                )
                if "p50" in o:
                    line += f" p50={o['p50']:.4g} p95={o['p95']:.4g} p99={o['p99']:.4g}"
                lines.append(line)
        if len(lines) == 2:
            lines.append("(empty)")
        return "\n".join(lines)
