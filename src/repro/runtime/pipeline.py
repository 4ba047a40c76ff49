"""The staged diagnosis pipeline — figure 3 as explicit, observable stages.

``Flames.diagnose`` calls :func:`diagnose`, the engine's computation
decomposed into named stages, each wrapped in a
:class:`~repro.runtime.spans.Span` and each checking the run's
:class:`~repro.runtime.context.RunContext`:

* ``nominal``    — read the nominal predictions from the circuit's model
  database, building them on a miss (the span's ``model`` meta says which);
* ``seed``       — build the propagator and assert the predictions and
  measurements;
* ``propagate``  — run the constraint-propagation fixpoint (the only
  long stage: it ticks the context per work-list pop and winds down
  cooperatively on expiry);
* ``classify``   — per-probe consistency (the figure-7 Dc table);
* ``nogoods``    — fold the propagator's conflict log into a
  :class:`~repro.atms.NogoodDatabase` and collect the minimal weighted
  nogoods above threshold;
* ``candidates`` — minimal hitting sets (the candidate spaces);
* ``score``      — per-component suspicion degrees.

:func:`seed` and :func:`finish_diagnosis` (the classify → nogoods →
candidates → score tail) are module-level so the streaming engine
(:mod:`repro.stream.incremental`) runs the very same stages.  Conflict
state lives only in the propagator's log: the nogoods are a view
rebuilt from it, so a restored propagator checkpoint restores them too.
Every assumption holds at degree 1, so the fold gives what a fuzzy ATMS
replay of the log would (``tests/atms/test_properties.py`` pins that).

Interruption contract: when the context expires mid-``propagate`` the
downstream stages still run on whatever the fixpoint had established, so
the caller always receives a *well-formed* :class:`DiagnosisResult`; the
result (and its ``propagation`` outcome) is flagged ``interrupted`` and
is never cached by the service layer.  With an unbounded, untraced
context the pipeline is byte-identical to the pre-staged engine — the
golden snapshots in ``tests/golden`` pin that down.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.atms import admitted_conflicts, fold_conflicts, minimal_diagnoses, suspicion_scores
from repro.circuit.measurements import Measurement
from repro.fuzzy import consistency
from repro.runtime.context import RunContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> runtime)
    from repro.core.diagnosis import DiagnosisResult, Flames
    from repro.core.propagation import FuzzyPropagator, PropagationResult

__all__ = ["STAGES", "check_points", "diagnose", "finish_diagnosis", "seed"]

#: The stage names, in execution order (also the span names).
STAGES = (
    "nominal",
    "seed",
    "propagate",
    "classify",
    "nogoods",
    "candidates",
    "score",
)


def check_points(engine: "Flames", measurements: Sequence[Measurement]) -> None:
    """Raise ``KeyError`` for the first measurement naming no model variable."""
    for m in measurements:
        if m.point not in engine.network.variables:
            raise KeyError(f"no variable {m.point!r} in the model")


def seed(
    engine: "Flames",
    propagator: "FuzzyPropagator",
    measurements: Sequence[Measurement],
) -> None:
    """The seed stage: assert the nominal predictions, then the measurements.

    Database predictions go first so mode guards and coincidence checks
    see them.  The measurements are checked before anything is asserted.
    The engine's nominal predictions must already be solved.
    """
    check_points(engine, measurements)
    nominal = engine._nominal
    assert nominal is not None
    for name, prediction in nominal.items():
        if name in engine.network.variables:
            propagator.set_value(
                name, prediction.value, prediction.support, source="prediction"
            )
    for m in measurements:
        propagator.set_value(m.point, m.value)


def diagnose(
    engine: "Flames",
    measurements: Sequence[Measurement],
    ctx: Optional[RunContext] = None,
) -> "DiagnosisResult":
    """Run every stage of one diagnose cycle; always returns a well-formed result."""
    if ctx is None:
        ctx = RunContext()

    with ctx.span("diagnose", circuit=engine.circuit.name):
        with ctx.span("nominal") as span:
            held = engine._ensure_nominal()
            if span is not None:
                span.meta["model"] = "hit" if held else "miss"

        with ctx.span("seed"):
            propagator = engine.make_propagator()
            seed(engine, propagator, measurements)

        with ctx.span("propagate") as span:
            before = propagator.counts() if span is not None else None
            outcome = propagator.run(ctx=ctx)
            if span is not None:
                span.meta["steps"] = outcome.steps
                span.meta["quiescent"] = outcome.quiescent
                after = propagator.counts()
                span.meta.update({key: after[key] - before[key] for key in after})

        return finish_diagnosis(engine, measurements, propagator, outcome, ctx)


def finish_diagnosis(
    engine: "Flames",
    measurements: Sequence[Measurement],
    propagator: "FuzzyPropagator",
    outcome: "PropagationResult",
    ctx: RunContext,
) -> "DiagnosisResult":
    """The classify → nogoods → candidates → score stages, then the result.

    Cheap bookkeeping over whatever the fixpoint established: it runs
    even after an interruption so a partial result is well-formed
    (ranked, classified, serialisable) and flagged ``interrupted``.
    """
    from repro.core.diagnosis import DiagnosisResult

    config = engine.config
    with ctx.span("classify"):
        predictions = engine.predictions()
        support = engine.prediction_support()
        consistencies = {
            m.point: consistency(m.value, predictions[m.point])
            for m in measurements
            if m.point in predictions
        }
    with ctx.span("nogoods") as span:
        conflicts = propagator.conflicts
        log = [(c.environment, c.degree) for c in conflicts]
        nogoods = fold_conflicts(log, config.conflict_threshold)
        if span is not None:
            kept = sum(1 for _ in admitted_conflicts(log, config.conflict_threshold))
            span.meta.update(conflicts=len(log), kept=kept, nogoods=len(nogoods))
    with ctx.span("candidates"):
        diagnoses = minimal_diagnoses(
            nogoods,
            threshold=config.conflict_threshold,
            max_size=config.max_candidate_size,
        )
    with ctx.span("score"):
        suspicions = {a.datum: s for a, s in suspicion_scores(nogoods).items()}

    ctx.should_stop()  # latch expiry observed after the last stage
    return DiagnosisResult(
        measurements=list(measurements),
        predictions=predictions,
        prediction_support=support,
        consistencies=consistencies,
        nogoods=nogoods,
        diagnoses=diagnoses,
        suspicions=suspicions,
        conflicts=conflicts,
        propagation=outcome,
        interrupted=ctx.interrupted or outcome.interrupted,
        trace=ctx.trace() if ctx.tracing else None,
    )
