"""Hierarchical timing spans — the one timing mechanism of the runtime.

A :class:`Span` is a named, nestable stopwatch.  The engine's staged
pipeline opens one span per stage, the fleet service folds finished
span trees into its telemetry phase accumulators, the server surfaces
them in ``/metrics`` and response payloads, and the CLI renders them as
a trace tree — all from this single primitive, so "where does the time
go?" has exactly one answer everywhere.

Spans serialise to plain dicts (``to_dict``/``from_dict``) so they can
cross process boundaries with a pickled job payload or a JSON response
body.  Durations are measured with :func:`time.perf_counter`; the
absolute start/end instants are process-local and deliberately not
part of the serialised form.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "render_trace"]


@dataclass
class Span:
    """One named, nestable timing interval with optional metadata."""

    name: str
    meta: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)
    _start: float = 0.0
    _end: Optional[float] = None
    #: Duration override used when a span is rebuilt from a dict.
    _seconds: Optional[float] = None

    def begin(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def finish(self) -> "Span":
        if self._end is None:
            self._end = time.perf_counter()
        return self

    @property
    def seconds(self) -> float:
        """Elapsed seconds (live spans read the clock; ended spans don't)."""
        if self._seconds is not None:
            return self._seconds
        end = self._end if self._end is not None else time.perf_counter()
        return max(0.0, end - self._start)

    def walk(self) -> Iterator[Tuple[int, "Span"]]:
        """Depth-first (depth, span) traversal including this span."""
        stack: List[Tuple[int, Span]] = [(0, self)]
        while stack:
            depth, span = stack.pop()
            yield depth, span
            for child in reversed(span.children):
                stack.append((depth + 1, child))

    # ------------------------------------------------------------------
    # Plain-data round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        entry: Dict[str, object] = {"name": self.name, "seconds": self.seconds}
        if self.meta:
            entry["meta"] = dict(self.meta)
        if self.children:
            entry["children"] = [child.to_dict() for child in self.children]
        return entry

    @classmethod
    def from_dict(cls, data: Dict) -> "Span":
        span = cls(
            name=str(data.get("name", "?")),
            meta=dict(data.get("meta") or {}),
            children=[cls.from_dict(c) for c in data.get("children") or []],
        )
        span._seconds = float(data.get("seconds", 0.0))
        span._end = 0.0  # rebuilt spans are closed by construction
        return span


def _render_meta(meta: Dict[str, object]) -> str:
    return " ".join(f"{key}={meta[key]}" for key in sorted(meta))


def render_trace(trace: Dict) -> str:
    """Render a ``RunContext.trace()`` dict as an indented span tree.

    ::

        trace 7f3a9c12 [interrupted: deadline]
          diagnose                      142.10ms  circuit=amp
            nominal                       0.01ms
            seed                          3.20ms
            propagate                   131.07ms
    """
    header = f"trace {trace.get('trace_id', '?')}"
    if trace.get("interrupted"):
        header += f" [interrupted: {trace.get('stop_reason') or 'stopped'}]"
    lines = [header]
    for entry in trace.get("spans", ()):
        for depth, span in Span.from_dict(entry).walk():
            indent = "  " * (depth + 1)
            label = f"{indent}{span.name}"
            line = f"{label:<30} {span.seconds * 1000:>10.2f}ms"
            if span.meta:
                line += f"  {_render_meta(span.meta)}"
            lines.append(line)
    if len(lines) == 1:
        lines.append("  (no spans recorded)")
    return "\n".join(lines)
