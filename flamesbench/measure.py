"""Measurement primitives: percentiles, spreads, spans, memory, digests.

Everything here is plain Python over plain data so the workloads, the
row code in ``run.py`` and ``--compare`` share one definition of each number.

Span trees are dicts in the engine's own ``Span.to_dict`` shape
(``{"name", "seconds", "meta"?, "children"?}``), so the engine's trees
graft onto the benchmark's without conversion beyond a rename.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

#: Layers that build or restore solver state around the fixpoint.
STATE_LAYERS = (
    "runtime.nominal",
    "runtime.seed",
    "stream.order",
    "stream.restore",
    "stream.absorb",  # self time: checkpointing after each absorbed point
)
TAIL_LAYERS = ("runtime.classify", "runtime.nogoods", "runtime.candidates", "runtime.score")
ENGINE_ROOTS = ("runtime.diagnose", "stream.tick")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1] (numpy's default)."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def relative_iqr(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / med if med else 0.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def node(name: str, seconds: float = 0.0, **meta: object) -> Dict:
    entry: Dict = {"name": name, "seconds": seconds, "children": []}
    if meta:
        entry["meta"] = dict(meta)
    return entry


class Tracer:
    """Benchmark-side span collector (one root per measured operation)."""

    def __init__(self) -> None:
        self.roots: List[Dict] = []
        self._stack: List[Dict] = []

    @contextmanager
    def span(self, name: str, **meta: object) -> Iterator[Dict]:
        entry = node(name, **meta)
        (self._stack[-1]["children"] if self._stack else self.roots).append(entry)
        self._stack.append(entry)
        started = time.perf_counter()
        try:
            yield entry
        finally:
            entry["seconds"] = time.perf_counter() - started
            self._stack.pop()


def walk(tree: Dict) -> Iterator[Dict]:
    stack = [tree]
    while stack:
        entry = stack.pop()
        yield entry
        stack.extend(entry.get("children") or ())


def self_times(tree: Dict) -> Dict[str, float]:
    """Per-name self time: a span's duration minus its children's."""
    out: Dict[str, float] = {}
    for entry in walk(tree):
        inner = sum(c["seconds"] for c in entry.get("children") or ())
        out[entry["name"]] = out.get(entry["name"], 0.0) + max(0.0, entry["seconds"] - inner)
    return out


def find(tree: Dict, names: Sequence[str]) -> List[Dict]:
    return [entry for entry in walk(tree) if entry["name"] in names]


@dataclass
class LayerSample:
    """One traced operation's engine decomposition (seconds, counts)."""

    state: float
    propagate: float
    steps: int
    tail: float


def layer_sample(tree: Dict) -> Optional[LayerSample]:
    """Decompose one operation's tree; None when no engine ran (a cache hit)."""
    if not find(tree, ENGINE_ROOTS):
        return None
    selfs = self_times(tree)
    steps = sum(
        int((entry.get("meta") or {}).get("steps", 0))
        for entry in find(tree, ("runtime.propagate",))
    )
    return LayerSample(
        state=sum(selfs.get(n, 0.0) for n in STATE_LAYERS),
        propagate=selfs.get("runtime.propagate", 0.0),
        steps=steps,
        tail=sum(selfs.get(n, 0.0) for n in TAIL_LAYERS),
    )


def layer_table(roots: Sequence[Dict]) -> Dict[str, Dict[str, float]]:
    """Self time per layer name over all roots: total ms, ms/op, share."""
    totals: Dict[str, float] = {}
    for root in roots:
        for name, secs in self_times(root).items():
            totals[name] = totals.get(name, 0.0) + secs
    wall = sum(root["seconds"] for root in roots) or 1.0
    ops = max(1, len(roots))
    return {
        name: {
            "total_ms": secs * 1e3,
            "ms_per_op": secs * 1e3 / ops,
            "share": secs / wall,
        }
        for name, secs in sorted(totals.items())
    }


# ----------------------------------------------------------------------
# Memory, digests
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is KiB on Linux


def vmhwm_mb(pid: int) -> float:
    """Another process's peak resident set (``VmHWM``), MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def canonical(data: object) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(items: Iterable[object]) -> str:
    """sha256 over the canonical JSON of each item, in order."""
    h = hashlib.sha256()
    for item in items:
        h.update(canonical(item).encode())
        h.update(b"\n")
    return h.hexdigest()


# ----------------------------------------------------------------------
# What a workload hands back
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Raw measurements of one workload run, before metrics are named.

    ``latencies_ms`` holds one entry per measured operation in time
    order; ``blocks`` splits the measured phase into (operations,
    seconds) pieces whose rates give the throughput spread.  Traced
    runs also fill ``roots`` (one span tree per operation),
    ``wall_roots`` (trees whose durations add up to the measured wall,
    when operations overlap and ``roots`` do not) and ``layers`` (the
    workload's own named layer numbers).
    """

    latencies_ms: List[float]
    ops: int
    seconds: float
    blocks: List[List[float]]
    attempted: int
    failed: int
    setup_s: List[float]
    peak_rss_mb: float
    checks: Dict[str, bool]
    digest: str
    info: Dict[str, object] = field(default_factory=dict)
    roots: List[Dict] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    wall_roots: List[Dict] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    @property
    def coverage_roots(self) -> List[Dict]:
        return self.wall_roots or self.roots


def time_blocks(durations: Sequence[float], pieces: int = 4) -> List[List[float]]:
    """Split consecutive operation durations into (ops, seconds) blocks."""
    n = len(durations)
    pieces = max(1, min(pieces, n))
    out = []
    for i in range(pieces):
        part = durations[i * n // pieces:(i + 1) * n // pieces]
        out.append([len(part), sum(part)])
    return out
