"""Fuzzy-interval constraint propagation with assumption tracking.

This is FLAMES's kernel loop: quantities start from wide, physically
justified seeds (the supply rails), and constraint projections narrow
them; every derived value carries the union of the component assumptions
it depends on.  When a projection *coincides* with an established value,
the conflict-recognition engine classifies the coincidence (figure 4)
and appends partial/total conflicts to the propagator's conflict log
(:attr:`FuzzyPropagator.conflicts`), from which the diagnosis pipeline
builds the weighted nogoods.

Relaxation note: circuits with feedback (a bias divider loaded by a base
current, a stage loaded by the next stage's input) are not solvable by
one-shot local propagation; iterating the projections from wide seeds
converges geometrically for the contraction-dominant networks that
well-designed bias circuits form, which is why the engine loops to
quiescence instead of doing a single pass.  A value only counts as new
information when it narrows the quantity beyond a slack, so the loop
terminates.  The loop's tunables are the module constants below.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.runtime.context import RunContext

from repro.circuit.constraints import Constraint, ConstraintNetwork
from repro.core.conflicts import RecognizedConflict, recognize
from repro.core.values import FuzzyValue
from repro.fuzzy import FuzzyInterval

__all__ = [
    "FuzzyPropagator",
    "PropagationResult",
    "PropagatorState",
]

#: Stored values per variable (measurements are always kept).
MAX_VALUES_PER_VARIABLE = 8
#: Values considered per input variable when projecting.
VALUES_PER_INPUT = 3
#: Cross-product cap per (constraint, target) projection.
MAX_COMBINATIONS = 12
#: Absolute slack under which a narrowing is not new information.
ABSOLUTE_SLACK = 1e-6
#: Relative (to current width) slack for the same test.
RELATIVE_SLACK = 2e-2
#: Narrowing merges allowed per stored entry before it freezes.
NARROWING_BUDGET = 50
#: Hard cap on processed queue entries (termination backstop).
MAX_STEPS = 20000

#: Sources whose entries are evidence or database predictions, never
#: merged or narrowed — they must stay pristine for conflict attribution.
_IMMUTABLE_SOURCES = frozenset({"measurement", "premise", "prediction"})


def _rank(value: FuzzyValue) -> tuple:
    """Preference order of stored values: evidence first, then narrow, then few assumptions."""
    return (value.source not in _IMMUTABLE_SOURCES, value.width, len(value.environment))


@dataclass
class PropagationResult:
    """Outcome of a propagation run.

    ``interrupted`` means the run's :class:`~repro.runtime.RunContext`
    expired (deadline, cancellation or step budget) before quiescence:
    every value established so far is still sound — propagation is
    monotone — but further narrowing and conflicts may have been missed.
    """

    steps: int
    quiescent: bool = True
    interrupted: bool = False


@dataclass(frozen=True)
class PropagatorState:
    """An immutable checkpoint of a propagator's established facts.

    Captures everything :meth:`FuzzyPropagator.restore` needs to resume
    computation from an earlier point: the per-variable value stores,
    the recognised conflicts, the dedup fingerprints and the dirty
    clock.  Stored entries are never mutated in place (merges replace
    list slots), so shallow container copies are sufficient and a
    checkpoint costs microseconds, not a deep traversal.  The streaming
    plane's incremental re-diagnosis (see ``repro.stream``) is built on
    this.
    """

    values: Dict[str, tuple]
    seen: Dict[str, FrozenSet]
    var_tick: Dict[str, int]
    fired_at: Dict[int, int]
    tick: int
    conflicts: tuple
    conflict_keys: FrozenSet


class FuzzyPropagator:
    """Work-list propagation over a circuit's constraint network."""

    def __init__(self, network: ConstraintNetwork) -> None:
        self.network = network
        self._values: Dict[str, List[FuzzyValue]] = {}
        self._watchers: Dict[str, List[Constraint]] = {}
        self._watched: Dict[int, tuple] = {}
        for constraint in network.constraints:
            watched = set(constraint.variable_names) | set(constraint.guard_variables)
            self._watched[id(constraint)] = tuple(watched)
            for name in watched:
                self._watchers.setdefault(name, []).append(constraint)
        self.reset()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restore every variable to its physical seed."""
        self._values = {}
        # Work counters since the last reset (read by the pipeline's
        # traced ``propagate`` span; not part of a checkpoint).
        self.projections = 0
        self.records_seen = 0
        self.records_subsumed = 0
        self.records_merged = 0
        self.records_appended = 0
        self.records_dropped = 0
        self.conflicts_logged = 0
        self._conflicts: List[RecognizedConflict] = []
        self._conflict_keys = set()
        # Dirty-tracking: a monotone change counter, the tick at which
        # each variable last changed, and the tick at which each
        # constraint last fired.  A constraint none of whose watched
        # variables changed since its last firing can only recompute
        # projections the ``_seen`` dedup would discard, so :meth:`_apply`
        # skips it without recomputing anything.
        self._tick = 0
        self._var_tick: Dict[str, int] = {}
        self._fired_at: Dict[int, int] = {}
        # Exact projections already processed, per variable: reprocessing
        # an identical value can neither narrow entries (monotone) nor
        # reveal new conflicts (deduplicated), so it is skipped outright.
        self._seen: Dict[str, set] = {}
        # Per-variable memo of the ``_rank``-sorted store, stamped with
        # the variable's change tick; every store mutation goes through
        # :meth:`_touch`, so an equal stamp means an unchanged store.
        self._ranked: Dict[str, tuple] = {}
        for name, var in self.network.variables.items():
            if name == "V(0)":
                # The ground reference is a premise: crisp and immutable.
                value = FuzzyValue(FuzzyInterval.crisp(0.0), frozenset(), "premise")
            else:
                value = FuzzyValue(var.seed, frozenset(), "seed", from_seed=True)
            self._values[name] = [value]

    def checkpoint(self) -> PropagatorState:
        """Snapshot the established facts (values, conflicts, dedup state).

        Restoring the snapshot with :meth:`restore` puts the propagator
        back into exactly this state; because stored entries are
        replaced rather than mutated, the snapshot shares them and only
        copies the containers.
        """
        return PropagatorState(
            values={name: tuple(stored) for name, stored in self._values.items()},
            seen={name: frozenset(seen) for name, seen in self._seen.items()},
            var_tick=dict(self._var_tick),
            fired_at=dict(self._fired_at),
            tick=self._tick,
            conflicts=tuple(self._conflicts),
            conflict_keys=frozenset(self._conflict_keys),
        )

    def restore(self, state: PropagatorState) -> None:
        """Resume from a :meth:`checkpoint`.

        The restored run is observationally identical to a fresh
        propagator that replayed the same assertions, at the cost of a
        few container copies instead of a replay.

        A state is only meaningful to the propagator that produced it
        (constraint firing stamps are keyed by constraint identity).
        """
        self._values = {name: list(stored) for name, stored in state.values.items()}
        # Tick stamps repeat after a restore, so the rank memo must go.
        self._ranked = {}
        self._seen = {name: set(seen) for name, seen in state.seen.items()}
        self._var_tick = dict(state.var_tick)
        self._fired_at = dict(state.fired_at)
        self._tick = state.tick
        self._conflicts = list(state.conflicts)
        self._conflict_keys = set(state.conflict_keys)

    def set_value(
        self,
        name: str,
        interval: FuzzyInterval,
        environment: FrozenSet[str] = frozenset(),
        source: str = "measurement",
    ) -> None:
        """Assert a value (typically a measurement) for a variable.

        Conflicts recognised immediately against existing values join the
        log; run :meth:`run` afterwards to propagate the consequences.
        """
        if name not in self._values:
            raise KeyError(f"unknown variable {name!r}")
        self._record(name, FuzzyValue(interval, environment, source))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def values(self, name: str) -> List[FuzzyValue]:
        return list(self._values[name])

    def best(self, name: str) -> Optional[FuzzyValue]:
        """The narrowest established value (measurements win ties)."""
        if not self._values.get(name):
            return None
        # The sort is stable, so its head is exactly ``min(key=_rank)``.
        return self._ranked_values(name)[0]

    def counts(self) -> Dict[str, int]:
        """Work counters since the last :meth:`reset`.

        ``projections`` counts attempted projections; every value
        offered to the store ends as exactly one of ``seen`` (an exact
        repeat), ``subsumed``, ``merged``, ``appended`` or ``dropped``
        (frozen entry or full store); ``conflicts`` counts conflicts
        added to the log.  Deterministic for a given input sequence.
        """
        return {
            "projections": self.projections,
            "seen": self.records_seen,
            "subsumed": self.records_subsumed,
            "merged": self.records_merged,
            "appended": self.records_appended,
            "dropped": self.records_dropped,
            "conflicts": self.conflicts_logged,
        }

    @property
    def conflicts(self) -> List[RecognizedConflict]:
        return list(self._conflicts)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, ctx: Optional["RunContext"] = None) -> PropagationResult:
        """Propagate to quiescence (or the step cap, or the context's stop).

        The fixpoint is sensitive to firing order (combination caps,
        value eviction), so the work list is never reordered.  Instead
        :meth:`_apply` skips any constraint none of whose watched
        variables changed since its last firing: such a firing can only
        reproduce projections the ``_seen`` dedup discards before they
        have any effect, so the skip is observationally a no-op (the
        differential suite in ``tests/core/test_tick_skip.py`` pins
        this).  Adding one measurement and re-running therefore
        recomputes only the affected cone.

        ``ctx`` makes the loop cooperative: it is ticked once per
        work-list pop (skipped firings included), and when it
        reports expiry — deadline passed, cancellation requested or
        step budget exhausted — the loop winds down immediately and the
        result is flagged ``interrupted``.  Everything established up to
        that point remains sound.
        """
        queue = list(self.network.constraints)
        queued = {id(c) for c in queue}
        steps = 0
        while queue:
            if ctx is not None and ctx.tick():
                return PropagationResult(steps, quiescent=False, interrupted=True)
            if steps >= MAX_STEPS:
                return PropagationResult(steps, quiescent=False)
            constraint = queue.pop(0)
            queued.discard(id(constraint))
            steps += 1
            changed_vars = self._apply(constraint)
            for name in changed_vars:
                for watcher in self._watchers.get(name, ()):
                    if id(watcher) not in queued:
                        queue.append(watcher)
                        queued.add(id(watcher))
        return PropagationResult(steps, quiescent=True)

    # ------------------------------------------------------------------
    def _apply(self, constraint: Constraint) -> List[str]:
        """Project a constraint onto each of its variables."""
        # Dirty check: unchanged watched variables mean unchanged pools,
        # guards and projections — every resulting value would be
        # discarded by the ``_seen`` fingerprint before recognition or
        # storage, so the whole firing is a provable no-op.
        cid = id(constraint)
        last = self._fired_at.get(cid)
        if last is not None and all(
            self._var_tick.get(v, 0) <= last for v in self._watched[cid]
        ):
            return []
        self._fired_at[cid] = self._tick
        activation_env: FrozenSet[str] = frozenset()
        if constraint.guard is not None:
            relevant = set(constraint.guard_variables) | set(constraint.variable_names)
            estimates = {name: self.best(name) for name in relevant}
            ok, activation_env = constraint.applicable_with_environment(estimates)
            if not ok:
                return []
        changed: List[str] = []
        env_base = frozenset(constraint.assumptions) | activation_env
        for target in constraint.variables:
            inputs = [v for v in constraint.variables if v.name != target.name]
            pools = [self._select(v.name) for v in inputs]
            if any(not p for p in pools):
                continue
            combos = itertools.islice(
                itertools.product(*pools), MAX_COMBINATIONS
            )
            for combo in combos:
                self.projections += 1
                projected = self._project(constraint, target, inputs, combo)
                if projected is None:
                    continue
                envs = []
                tainted = False
                for val in combo:
                    envs.append(val.environment)
                    if val.from_seed:
                        tainted = True
                env = env_base.union(*envs) if envs else env_base
                value = FuzzyValue(projected, env, constraint.name, from_seed=tainted)
                if self._record(target.name, value):
                    if target.name not in changed:
                        changed.append(target.name)
        return changed

    def _project(self, constraint, target, inputs, combo) -> Optional[FuzzyInterval]:
        """One projection (``None`` when it divides by zero)."""
        try:
            return constraint.project(
                target, {v.name: val.interval for v, val in zip(inputs, combo)}
            )
        except ZeroDivisionError:
            return None

    def _select(self, name: str) -> tuple:
        """Input values for a projection: measurements first, then narrow."""
        return self._ranked_values(name)[:VALUES_PER_INPUT]

    def _ranked_values(self, name: str) -> tuple:
        """The store of ``name`` sorted by :func:`_rank`, memoised per change tick."""
        tick = self._var_tick.get(name, 0)
        memo = self._ranked.get(name)
        if memo is not None and memo[0] == tick:
            return memo[1]
        ranked = tuple(sorted(self._values[name], key=_rank))
        self._ranked[name] = (tick, ranked)
        return ranked

    # ------------------------------------------------------------------
    def _record(self, name: str, new: FuzzyValue) -> bool:
        """Store a value; report coincidence conflicts; return "changed".

        Stored entries are *monotonically narrowed*: a new value merges by
        intersection into the first entry whose environment is comparable
        (subset or superset) to its own, and the merged entry's
        environment is the union of the two — the set of assumptions the
        accumulated narrowing depends on.  Measurements and premises are
        immutable (they are evidence, not inferences).  This
        intersection-only discipline is what keeps propagation sound in
        circuits with feedback loops: every entry always contains the
        true value whenever its supporting assumptions hold.
        """
        fingerprint = (new.interval.as_tuple(), new.environment)
        seen = self._seen.setdefault(name, set())
        if new.source not in _IMMUTABLE_SOURCES:
            if fingerprint in seen:
                self.records_seen += 1
                return False
            seen.add(fingerprint)
        stored = self._values[name]
        # Redundancy first: a value subsumed by an existing one cannot
        # reveal a conflict stronger than the ones its subsumer already
        # did, and skipping it avoids the (comparatively expensive)
        # coincidence classification on the quiescent tail.  Evidence
        # values are exempt — they must always be checked and stored.
        slack = ABSOLUTE_SLACK + RELATIVE_SLACK * new.width
        if new.source not in _IMMUTABLE_SOURCES:
            for existing in stored:
                if existing.subsumes(new, slack):
                    self.records_subsumed += 1
                    return False
        # Conflict recognition against every established value whose width
        # reflects model implication (seed-descended values carry
        # ignorance, not evidence).
        for existing in stored:
            if existing.from_seed or new.from_seed:
                continue
            if existing.is_seed or new.is_seed:
                continue
            conflict = recognize(name, new, existing)
            if conflict is not None:
                key = (
                    name,
                    conflict.environment,
                    round(conflict.degree, 2),
                    conflict.direction,
                )
                if key not in self._conflict_keys:
                    self._conflict_keys.add(key)
                    self._conflicts.append(conflict)
                    self.conflicts_logged += 1
        if new.source in _IMMUTABLE_SOURCES:
            stored.append(new)
            self._touch(name)
            self.records_appended += 1
            return True
        # Merge into an entry with the *same* environment.  Equal-env
        # merging is what lets loop relaxation converge; merging across
        # different environments would grow the narrow value's env to the
        # union and thereby destroy precisely-attributed evidence (a
        # measured-backed {R2} value swallowed by an everything-env
        # entry can no longer implicate R2 alone).
        for i, existing in enumerate(stored):
            if existing.source in _IMMUTABLE_SOURCES:
                continue
            if existing.environment != new.environment:
                continue
            if existing.revision >= NARROWING_BUDGET:
                self.records_dropped += 1
                return False  # frozen: relaxation budget exhausted
            hull = existing.interval.intersection_hull(new.interval)
            if hull is None:
                continue  # frank conflict (already logged); keep both views
            merged = FuzzyValue(
                hull,
                new.environment,
                new.source or existing.source,
                existing.revision + 1,
                # Intersection with an untainted value bounds the result by
                # model implication, clearing the taint.
                from_seed=existing.from_seed and new.from_seed,
            )
            if existing.subsumes(merged, slack):
                self.records_subsumed += 1
                return False
            stored[i] = merged
            self._touch(name)
            self.records_merged += 1
            return True
        if self._append(name, new):
            self._touch(name)
            self.records_appended += 1
            return True
        self.records_dropped += 1
        return False

    def _touch(self, name: str) -> None:
        """Stamp a variable as changed (advances the dirty clock)."""
        self._tick += 1
        self._var_tick[name] = self._tick

    def _append(self, name: str, new: FuzzyValue) -> bool:
        """Add a new entry, honouring the size cap.

        When the variable is full, the new entry must beat the widest
        evictable entry to get in; otherwise it is dropped *without*
        counting as a change — evict-and-readd cycles would keep the
        work list busy forever.
        """
        stored = self._values[name]
        cap = MAX_VALUES_PER_VARIABLE
        if len(stored) < cap or new.source in _IMMUTABLE_SOURCES:
            stored.append(new)
            return True
        evictable = [
            (i, v)
            for i, v in enumerate(stored)
            if v.source not in _IMMUTABLE_SOURCES
        ]
        if not evictable:
            return False
        worst_index, worst = max(evictable, key=lambda iv: (iv[1].width, len(iv[1].environment)))
        if new.width < worst.width:
            stored[worst_index] = new
            return True
        return False
