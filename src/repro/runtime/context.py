"""Run-scoped execution control: deadlines, cancellation, budgets, traces.

The paper's engine ran one diagnosis to completion, however long it
took; a served engine must answer "stop now" and "you have 80ms left"
*from the inside*.  :class:`RunContext` is the object threaded through
every layer (CLI → server → fleet engine → pipeline → propagator) that
carries:

* a **monotonic deadline** — absolute, on an injectable clock so tests
  can expire it deterministically;
* a **cooperative cancellation flag** — thread-safe and latching, so
  the server's event loop can cancel the worker thread it timed out;
* a **step budget** — a deterministic work bound counted in propagator
  queue pops (skipped no-op firings included), which is what makes
  interruption reproducible in tests;
* a **trace id** and a hierarchical :class:`~repro.runtime.spans.Span`
  collector (off by default; spans cost nothing when tracing is off).

Checking is *cooperative*: long-running loops call :meth:`tick` (or
:meth:`should_stop`) at safe points and wind down cleanly, returning
partial-but-well-formed results flagged ``interrupted`` — never a
half-mutated engine.  The first stop condition observed wins and is
latched in :attr:`stop_reason`.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Callable, Dict, List, Optional

from repro.runtime.spans import Span

__all__ = ["RunContext"]


class _NullSpanHandle:
    """Shared no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpanHandle()


class _SpanHandle:
    """Context manager that opens one span on a context's span stack."""

    __slots__ = ("_ctx", "span")

    def __init__(self, ctx: "RunContext", name: str, meta: Dict[str, object]):
        self._ctx = ctx
        self.span = Span(name=name, meta=meta)

    def __enter__(self) -> Span:
        ctx = self._ctx
        stack = ctx._span_stack
        if stack:
            stack[-1].children.append(self.span)
        else:
            ctx.spans.append(self.span)
        stack.append(self.span)
        self.span.begin()
        return self.span

    def __exit__(self, *exc_info: object) -> bool:
        self.span.finish()
        self._ctx._span_stack.pop()
        return False


class RunContext:
    """Deadline + cancellation + budget + trace for one diagnosis run.

    Args:
        deadline: absolute instant (on ``clock``'s timeline) after which
            the run must wind down; ``None`` = unbounded.
        step_budget: maximum cooperative :meth:`tick` charges before the
            run must stop; deterministic.  ``None`` = unbounded.
        trace_id: correlates the run across layers and log lines; a
            fresh id is minted when omitted.
        tracing: collect :class:`Span` trees (off by default — span
            collection is cheap but not free).
        clock: monotonic time source (injectable for deterministic
            deadline tests).

    Cancellation (:meth:`cancel`) is thread-safe and sticky: the
    requesting side (a server event loop, a supervising thread) cancels
    and the working side observes it at its next checkpoint.
    """

    __slots__ = (
        "deadline",
        "step_budget",
        "steps_used",
        "trace_id",
        "tracing",
        "_cancelled",
        "clock",
        "spans",
        "interrupted",
        "stop_reason",
        "_span_stack",
    )

    def __init__(
        self,
        *,
        deadline: Optional[float] = None,
        step_budget: Optional[int] = None,
        trace_id: Optional[str] = None,
        tracing: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.clock = clock
        self.deadline = deadline
        self.step_budget = step_budget
        self.steps_used = 0
        self.trace_id = trace_id if trace_id else uuid.uuid4().hex[:16]
        self.tracing = bool(tracing)
        self._cancelled = threading.Event()
        self.spans: List[Span] = []
        self._span_stack: List[Span] = []
        self.interrupted = False
        self.stop_reason = ""

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def with_timeout(
        cls,
        seconds: Optional[float],
        *,
        trace_id: Optional[str] = None,
        tracing: bool = False,
    ) -> "RunContext":
        """A context whose deadline is ``seconds`` from now (``None`` = never)."""
        deadline = time.monotonic() + seconds if seconds is not None else None
        return cls(deadline=deadline, trace_id=trace_id, tracing=tracing)

    # ------------------------------------------------------------------
    # Deadline / cancellation
    # ------------------------------------------------------------------
    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (``None`` = unbounded, floor 0)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self.clock())

    def cancel(self) -> None:
        """Request cooperative cancellation (observable across threads)."""
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def _stop(self, reason: str) -> bool:
        self.interrupted = True
        if not self.stop_reason:
            self.stop_reason = reason
        return True

    def should_stop(self) -> bool:
        """True when the run must wind down; latches :attr:`stop_reason`."""
        if self._cancelled.is_set():
            return self._stop("cancelled")
        if self.deadline is not None and self.clock() >= self.deadline:
            return self._stop("deadline")
        if self.step_budget is not None and self.steps_used >= self.step_budget:
            return self._stop("step-budget")
        return False

    def tick(self, steps: int = 1) -> bool:
        """Charge ``steps`` units of work and report whether to stop.

        The propagator calls this once per work-list pop: the charge is
        what makes step budgets deterministic, and the check is what
        makes deadlines and cancellation cooperative.
        """
        self.steps_used += steps
        return self.should_stop()

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def span(self, name: str, **meta: object):
        """Open a nested span (a no-op handle when tracing is off)."""
        if not self.tracing:
            return _NULL_SPAN
        return _SpanHandle(self, name, meta)

    def trace(self) -> Dict:
        """The collected span tree as a JSON-safe dict."""
        return {
            "trace_id": self.trace_id,
            "interrupted": self.interrupted,
            "stop_reason": self.stop_reason,
            "spans": [span.to_dict() for span in self.spans],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        remaining = self.remaining()
        budget = (
            f" budget={self.steps_used}/{self.step_budget}"
            if self.step_budget is not None
            else ""
        )
        left = f" remaining={remaining:.3f}s" if remaining is not None else ""
        state = " interrupted" if self.interrupted else ""
        return f"RunContext({self.trace_id}{left}{budget}{state})"
