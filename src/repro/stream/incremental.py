"""The incremental re-diagnosis engine: a prefix-checkpoint chain.

Retracting one measurement from a fuzzy fixpoint exactly is
intractable — a measurement's consequences thread through every
narrowing merge downstream — so the streaming plane avoids retraction
altogether.  The engine absorbs measurements **one at a time in a
session-stable order**, running the propagator to quiescence after each
assertion and checkpointing the propagator after every step.  A chain
step holds just the absorbed measurement and the propagator's
:meth:`~repro.core.propagation.FuzzyPropagator.checkpoint` (values,
dedup state and the conflict log); the nogoods are not part of the
state, because the pipeline's ``nogoods`` stage folds them from the
conflict log on every tick.  The base step is seeded and each tick
finished by the pipeline's own :func:`~repro.runtime.pipeline.seed`
and :func:`~repro.runtime.pipeline.finish_diagnosis`.  When the next
snapshot arrives, the longest prefix of the chain whose (point, value)
pairs are unchanged is *restored* instead of recomputed, and only the
suffix — the dirty points, which the order maintenance deliberately
moves to the back of the chain — is re-asserted.  One changed measurement out of N
costs one propagation step instead of N.

Semantics: the chain computes the fixpoint of an *arrival-ordered*
absorption sequence.  That is deterministic and observationally
identical to a cold engine replaying the same sequence in the same
order (the differential suite in ``tests/stream`` pins this), but it is
**not** guaranteed to match a one-shot :meth:`Flames.diagnose` of the
final set, because the propagator's fixpoint is order-sensitive
(narrowing budgets and subsumption slack make intermediate merge order
observable).  Streaming consumers see a
consistent, reproducible trajectory; batch consumers keep the one-shot
semantics they always had.

Interruption contract: if a :class:`~repro.runtime.RunContext` expires
mid-suffix, the partial result is returned flagged ``interrupted`` and
**no checkpoint is appended** for the interrupted step — the chain is
truncated to the last completed prefix, so the next tick redoes the
unfinished work instead of building on a non-quiescent state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.circuit.measurements import Measurement
from repro.core.diagnosis import DiagnosisResult, Flames
from repro.core.propagation import PropagationResult, PropagatorState
from repro.runtime.context import RunContext
from repro.runtime.pipeline import check_points, finish_diagnosis, seed

__all__ = ["IncrementalDiagnosisEngine", "TickStats"]


@dataclass(frozen=True)
class _ChainStep:
    """One absorbed measurement and the propagator state just after it.

    ``measurement`` is None only for the base step (the predictions-only
    fixpoint, before any observation is absorbed).
    """

    measurement: Optional[Measurement]
    propagator_state: PropagatorState


@dataclass(frozen=True)
class TickStats:
    """What one :meth:`IncrementalDiagnosisEngine.diagnose` call did."""

    reused_prefix: int  # chain steps restored instead of recomputed
    recomputed: int  # measurements (re-)asserted this tick
    total: int  # measurements in the diagnosed snapshot
    propagation_steps: int  # work-list pops across the suffix runs

    @property
    def incremental(self) -> bool:
        """True when at least one chain step was reused."""
        return self.reused_prefix > 0 and self.recomputed < self.total


class IncrementalDiagnosisEngine:
    """A warm FLAMES engine that re-diagnoses via chain checkpoints."""

    def __init__(self, engine: Flames) -> None:
        self.engine = engine
        self._propagator = engine.make_propagator()
        # The absorption chain.
        self._base: Optional[_ChainStep] = None  # predictions-only fixpoint
        self._chain: List[_ChainStep] = []
        self._order: List[str] = []  # session-stable absorption order
        self.last_stats: Optional[TickStats] = None

    # ------------------------------------------------------------------
    # Chain bookkeeping
    # ------------------------------------------------------------------
    def _build_base(self, ctx: RunContext) -> bool:
        """Predictions-only fixpoint; False when interrupted."""
        self.engine._ensure_nominal()
        self._propagator.reset()
        seed(self.engine, self._propagator, ())
        outcome = self._propagator.run(ctx=ctx)
        if outcome.interrupted:
            return False
        self._base = _ChainStep(None, self._propagator.checkpoint())
        return True

    def _maintain_order(self, measurements: Sequence[Measurement]) -> List[Measurement]:
        """Session-stable absorption order; dirty points go to the back.

        Points keep their chain position while their value is unchanged;
        changed and new points move to the back so the surviving prefix
        is as long as possible.  Removed points drop out (which
        invalidates the chain from their old position on — exactly
        right, since their assertion must be undone).
        """
        by_point: Dict[str, Measurement] = {}
        for m in measurements:
            by_point[m.point] = m
        if len(by_point) != len(measurements):
            raise ValueError("duplicate measurement points in one snapshot")

        absorbed = {
            step.measurement.point: step.measurement for step in self._chain
        }
        stable: List[Measurement] = []
        dirty: List[Measurement] = []
        # Previously absorbed points first, in chain order.
        for point in self._order:
            if point not in by_point:
                continue
            m = by_point.pop(point)
            if point in absorbed and absorbed[point].value == m.value:
                stable.append(m)
            else:
                dirty.append(m)
        # Brand-new points at the very back, in arrival order.
        dirty.extend(by_point.values())
        ordered = stable + dirty
        self._order = [m.point for m in ordered]
        return ordered

    def _valid_prefix(self, ordered: Sequence[Measurement]) -> int:
        """How many leading chain steps match the new sequence exactly."""
        k = 0
        for step, m in zip(self._chain, ordered):
            if step.measurement.point != m.point or step.measurement.value != m.value:
                break
            k += 1
        return k

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def diagnose(
        self,
        measurements: Sequence[Measurement],
        ctx: Optional[RunContext] = None,
    ) -> DiagnosisResult:
        """Re-diagnose a snapshot, reusing the longest valid chain prefix."""
        if ctx is None:
            ctx = RunContext()

        engine = self.engine
        with ctx.span("stream.tick", circuit=engine.circuit.name):
            check_points(engine, measurements)

            with ctx.span("order"):
                ordered = self._maintain_order(measurements)

            interrupted = False
            total_steps = 0
            quiescent = True

            with ctx.span("restore") as span:
                if self._base is None:
                    if not self._build_base(ctx):
                        # Could not even establish the predictions-only
                        # fixpoint inside the budget: report an empty,
                        # interrupted result and leave the chain unbuilt.
                        self._base = None
                        return finish_diagnosis(
                            engine,
                            measurements,
                            self._propagator,
                            PropagationResult(
                                steps=0, quiescent=False, interrupted=True
                            ),
                            ctx,
                        )
                    self._chain = []
                prefix = self._valid_prefix(ordered)
                self._chain = self._chain[:prefix]
                step = self._chain[-1] if prefix else self._base
                self._propagator.restore(step.propagator_state)
                if span is not None:
                    span.meta["prefix"] = prefix
                    span.meta["suffix"] = len(ordered) - prefix

            with ctx.span("absorb") as span:
                for m in ordered[prefix:]:
                    self._propagator.set_value(m.point, m.value)
                    outcome = self._propagator.run(ctx=ctx)
                    total_steps += outcome.steps
                    if outcome.interrupted:
                        # Do not checkpoint a non-quiescent state; the
                        # next tick redoes this step from the prefix.
                        interrupted = True
                        quiescent = False
                        break
                    self._chain.append(_ChainStep(m, self._propagator.checkpoint()))
                if span is not None:
                    span.meta["steps"] = total_steps

            stats = TickStats(
                reused_prefix=prefix,
                recomputed=len(ordered) - prefix,
                total=len(ordered),
                propagation_steps=total_steps,
            )
            self.last_stats = stats
            outcome_all = PropagationResult(
                steps=total_steps, quiescent=quiescent, interrupted=interrupted
            )
            return finish_diagnosis(
                engine, ordered, self._propagator, outcome_all, ctx
            )

    # ------------------------------------------------------------------
    @property
    def order(self) -> List[str]:
        """The current absorption order (for cold-baseline replays)."""
        return list(self._order)
