"""The incremental re-diagnosis engine: a prefix-checkpoint chain.

Retracting one measurement from a fuzzy fixpoint exactly is
intractable — a measurement's consequences thread through every
narrowing merge downstream — so the streaming plane avoids retraction
altogether.  The engine absorbs measurements **one at a time in a
session-stable order**, running the propagator to quiescence after each
assertion and checkpointing the complete solver state (propagator facts
via :meth:`~repro.core.propagation.FuzzyPropagator.checkpoint`, the
fuzzy ATMS and its assumption nodes via ``copy.deepcopy``, the
data-conflict list) after every step.  When the next snapshot arrives,
the longest prefix of the chain whose (point, value) pairs are
unchanged is *restored* instead of recomputed, and only the suffix —
the dirty points, which the order maintenance deliberately moves to the
back of the chain — is re-asserted.  One changed measurement out of N
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

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.atms import FuzzyATMS, minimal_diagnoses, suspicion_scores
from repro.atms.nodes import Node
from repro.circuit.measurements import Measurement
from repro.core.conflicts import RecognizedConflict
from repro.core.diagnosis import DiagnosisResult, Flames
from repro.core.propagation import PropagationResult, PropagatorState
from repro.fuzzy import consistency
from repro.runtime.context import RunContext

__all__ = ["IncrementalDiagnosisEngine", "TickStats"]


@dataclass(frozen=True)
class _ChainStep:
    """One absorbed measurement and the solver state just after it.

    ``measurement`` is None only for the base step (the predictions-only
    fixpoint, before any observation is absorbed).
    """

    measurement: Optional[Measurement]
    propagator_state: PropagatorState
    atms_state: Tuple[FuzzyATMS, Dict[str, Node]]  # deepcopied (atms, nodes)
    data_conflicts: Tuple[RecognizedConflict, ...]


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
        self.config = engine.config
        self._propagator = engine.make_propagator()
        self._propagator.on_conflict = self._on_conflict
        # Working ATMS state (swapped wholesale on restore).
        self._atms: Optional[FuzzyATMS] = None
        self._nodes: Dict[str, Node] = {}
        self._data_conflicts: List[RecognizedConflict] = []
        # The absorption chain.
        self._base: Optional[_ChainStep] = None  # predictions-only fixpoint
        self._chain: List[_ChainStep] = []
        self._order: List[str] = []  # session-stable absorption order
        self.last_stats: Optional[TickStats] = None

    # ------------------------------------------------------------------
    # ATMS plumbing (mirrors DiagnosisPipeline's seed stage)
    # ------------------------------------------------------------------
    def _fresh_atms(self) -> None:
        self._atms = FuzzyATMS(
            t_norm=self.config.t_norm, hard_threshold=self.config.hard_threshold
        )
        self._nodes = {}
        self._data_conflicts = []

    def _node_for(self, name: str) -> Node:
        if name not in self._nodes:
            assert self._atms is not None
            self._nodes[name] = self._atms.create_assumption(f"ok({name})", name)
        return self._nodes[name]

    def _on_conflict(self, conflict: RecognizedConflict) -> None:
        if conflict.degree < self.config.conflict_threshold:
            return
        if not conflict.environment:
            self._data_conflicts.append(conflict)
            return
        assert self._atms is not None
        self._atms.declare_soft_nogood(
            f"{conflict.variable}",
            [self._node_for(n) for n in sorted(conflict.environment)],
            conflict.degree,
        )

    # ------------------------------------------------------------------
    # Chain bookkeeping
    # ------------------------------------------------------------------
    def _snapshot_step(self, measurement: Measurement) -> _ChainStep:
        return _ChainStep(
            measurement=measurement,
            propagator_state=self._propagator.checkpoint(),
            atms_state=copy.deepcopy((self._atms, self._nodes)),
            data_conflicts=tuple(self._data_conflicts),
        )

    def _restore_step(self, step: _ChainStep) -> None:
        self._propagator.restore(step.propagator_state)
        # Deepcopy again: the stored state must stay pristine while the
        # working copy keeps absorbing nogoods.
        self._atms, self._nodes = copy.deepcopy(step.atms_state)
        self._data_conflicts = list(step.data_conflicts)

    def _build_base(self, ctx: RunContext) -> bool:
        """Predictions-only fixpoint; False when interrupted."""
        self.engine._ensure_nominal()
        nominal = self.engine._nominal
        assert nominal is not None
        self._fresh_atms()
        self._propagator.reset()
        for name, prediction in nominal.items():
            if name in self.engine.network.variables:
                self._propagator.set_value(
                    name, prediction.value, prediction.support, source="prediction"
                )
        outcome = self._propagator.run(ctx=ctx)
        if outcome.interrupted:
            return False
        self._base = _ChainStep(
            measurement=None,
            propagator_state=self._propagator.checkpoint(),
            atms_state=copy.deepcopy((self._atms, self._nodes)),
            data_conflicts=tuple(self._data_conflicts),
        )
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
            ctx = RunContext.background()

        engine = self.engine
        with ctx.span("stream.tick", circuit=engine.circuit.name):
            for m in measurements:
                if m.point not in engine.network.variables:
                    raise KeyError(f"no variable {m.point!r} in the model")

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
                        return self._finish(
                            measurements,
                            PropagationResult(
                                steps=0, quiescent=False, interrupted=True
                            ),
                            ctx,
                            TickStats(0, 0, len(measurements), 0),
                        )
                    self._chain = []
                prefix = self._valid_prefix(ordered)
                self._chain = self._chain[:prefix]
                self._restore_step(self._chain[-1] if prefix else self._base)
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
                    self._chain.append(self._snapshot_step(m))
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
            return self._finish(ordered, outcome_all, ctx, stats)

    # ------------------------------------------------------------------
    def _finish(
        self,
        measurements: Sequence[Measurement],
        outcome: PropagationResult,
        ctx: RunContext,
        stats: TickStats,
    ) -> DiagnosisResult:
        """The pipeline's classify/nogoods/candidates/score tail."""
        engine = self.engine
        config = self.config
        assert self._atms is not None

        with ctx.span("classify"):
            predictions = engine.predictions()
            support = engine.prediction_support()
            consistencies = {
                m.point: consistency(m.value, predictions[m.point])
                for m in measurements
                if m.point in predictions
            }
        with ctx.span("nogoods"):
            nogoods = self._atms.weighted_nogoods(config.conflict_threshold)
        with ctx.span("candidates"):
            diagnoses = minimal_diagnoses(
                nogoods,
                threshold=config.conflict_threshold,
                max_size=config.max_candidate_size,
            )
        with ctx.span("score"):
            suspicions = {a.datum: s for a, s in suspicion_scores(nogoods).items()}

        ctx.should_stop()
        return DiagnosisResult(
            measurements=list(measurements),
            predictions=predictions,
            prediction_support=support,
            consistencies=consistencies,
            nogoods=nogoods,
            diagnoses=diagnoses,
            suspicions=suspicions,
            conflicts=self._propagator.conflicts + list(self._data_conflicts),
            propagation=outcome,
            interrupted=ctx.interrupted or outcome.interrupted,
            trace=ctx.trace() if ctx.tracing else None,
        )

    # ------------------------------------------------------------------
    @property
    def order(self) -> List[str]:
        """The current absorption order (for cold-baseline replays)."""
        return list(self._order)

    @property
    def chain_length(self) -> int:
        return len(self._chain)
