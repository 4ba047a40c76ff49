"""Staged diagnosis runtime: deadlines, cancellation, spans, pipeline.

The production layers (fleet service, HTTP server) used to bolt
timeouts and telemetry on from the *outside* — a 504 abandoned the
asyncio future while the worker kept burning CPU, and timing was only
known at job granularity.  This package moves both concerns *inside*
the engine:

* :mod:`repro.runtime.context`  — :class:`RunContext`: monotonic
  deadline, cooperative cancellation, deterministic step budgets,
  trace ids;
* :mod:`repro.runtime.spans`    — :class:`Span` trees, the single
  timing mechanism behind engine traces, service telemetry phases and
  server metrics;
* :mod:`repro.runtime.pipeline` — :func:`diagnose`: the
  engine's diagnose cycle as named, observable, interruptible stages
  (``nominal``→``seed``→``propagate``→``classify``→``nogoods``→
  ``candidates``→``score``).

Every layer threads the same context: CLI ``--deadline``/``--trace``,
server per-request budgets and ``X-Request-Id`` trace joins, fleet
in-band worker deadlines, down to the propagator's fixpoint loop, which
ticks the context per work-list pop and winds down cooperatively.
"""

from repro.runtime.context import RunContext
from repro.runtime.pipeline import STAGES, diagnose
from repro.runtime.spans import Span, render_trace

__all__ = [
    "RunContext",
    "STAGES",
    "diagnose",
    "Span",
    "render_trace",
]
