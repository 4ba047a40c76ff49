"""The label-weaving ATMS, kept as the oracle the ATMS tests compare against.

de Kleer's assumption-based truth maintenance system (AIJ 1986) keeps,
for every node, the *label*: the minimal assumption environments under
which the node holds.  Labels stay

* **sound** — the node is derivable from each label environment,
* **consistent** — no label environment contains a (hard) nogood,
* **minimal** — no label environment subsumes another, and
* **complete** — every consistent derivation environment is a superset
  of some label environment,

by incremental propagation over the justification graph (the *weave*).
Degrees are threaded through the whole algorithm, so :class:`FuzzyATMS`
— the extension of the paper's section 6 (uncertain clauses, weighted
nogoods, non-Horn clauses) — is a configuration, not a fork: with every
degree equal to 1.0 :class:`ATMS` is precisely the classic ATMS.

The diagnosis engine does not build labels: it folds the propagator's
conflict log with :func:`repro.atms.fold_conflicts`.  Every assumption
there holds at degree 1, so a replay of the same log into
:class:`FuzzyATMS` must give the same minimal nogoods — the property
``TestConflictFold`` pins.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.atms import Assumption, Environment, NogoodDatabase, WeightedNogood

__all__ = ["Node", "Justification", "ATMS", "FuzzyATMS"]

#: A t-norm: the conjunction that combines degrees along a derivation.
TNorm = Callable[[float, float], float]


@dataclass
class Node:
    """A problem-solver datum tracked by the ATMS.

    The *label* maps each supporting environment to the degree with which
    the node holds in it (always 1.0 in the classic ATMS; in (0, 1] for
    the fuzzy extension).  Labels are maintained minimal (no environment
    subsumes another at an equal-or-higher degree), sound and consistent.
    """

    datum: str
    assumption: Optional[Assumption] = None
    is_contradiction: bool = False
    label: Dict[Environment, float] = field(default_factory=dict)
    justifications: List["Justification"] = field(default_factory=list)
    consequences: List["Justification"] = field(default_factory=list)

    @property
    def is_assumption(self) -> bool:
        return self.assumption is not None

    @property
    def is_in(self) -> bool:
        """True when the node holds in at least one consistent environment."""
        return bool(self.label)

    @property
    def environments(self) -> List[Environment]:
        return list(self.label.keys())

    def holds_in(self, env: Environment) -> bool:
        """True when some label environment is a subset of ``env``."""
        return any(e.is_subset(env) for e in self.label)

    def degree_in(self, env: Environment) -> float:
        """Strongest degree with which the node holds in ``env`` (0 if out)."""
        return max(
            (d for e, d in self.label.items() if e.is_subset(env)), default=0.0
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = "!" if self.is_contradiction else ("A:" if self.is_assumption else "")
        return f"<{flag}{self.datum} {sorted(self.label, key=lambda e: e.size)}>"


@dataclass
class Justification:
    """``antecedents -> consequent`` with an informant tag and a certainty.

    ``degree`` is 1.0 for hard (classical) inferences; the fuzzy ATMS uses
    it for uncertain clauses such as expert fault-estimation rules.
    """

    informant: str
    antecedents: Sequence[Node]
    consequent: Node
    degree: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.degree <= 1.0:
            raise ValueError(f"justification degree {self.degree} outside (0, 1]")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ants = ",".join(a.datum for a in self.antecedents) or "T"
        return f"({ants} => {self.consequent.datum} [{self.informant}])"


class ATMS:
    """Classic ATMS over weighted environments.

    Args:
        t_norm: conjunction used to combine degrees along a derivation
            (min by default, matching possibilistic semantics).
        hard_threshold: nogood degree at and above which environments are
            considered frankly inconsistent and pruned from labels.
    """

    def __init__(self, t_norm: TNorm = min, hard_threshold: float = 1.0) -> None:
        if not 0.0 < hard_threshold <= 1.0:
            raise ValueError("hard threshold must be in (0, 1]")
        self.t_norm = t_norm
        self.hard_threshold = hard_threshold
        self.nodes: Dict[str, Node] = {}
        self.nogoods = NogoodDatabase()
        self.contradiction = self.create_node("FALSE", contradiction=True)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def create_node(self, datum: str, contradiction: bool = False) -> Node:
        """Create (or fetch) a plain node for ``datum``."""
        if datum in self.nodes:
            existing = self.nodes[datum]
            if existing.is_contradiction != contradiction:
                raise ValueError(f"node {datum!r} already exists with another role")
            return existing
        node = Node(datum=datum, is_contradiction=contradiction)
        self.nodes[datum] = node
        return node

    def create_assumption(self, name: str, datum: str = "") -> Node:
        """Create an assumption node; its label starts as ``{{A}}``."""
        if name in self.nodes:
            node = self.nodes[name]
            if not node.is_assumption:
                raise ValueError(f"node {name!r} already exists and is not an assumption")
            return node
        assumption = Assumption(name, datum or name)
        node = Node(datum=name, assumption=assumption)
        node.label[Environment(frozenset({assumption}))] = 1.0
        self.nodes[name] = node
        return node

    def add_premise(self, node: Node) -> None:
        """Assert ``node`` unconditionally (holds in the empty environment)."""
        self._enqueue_update(node, {Environment.empty(): 1.0})
        self._drain()

    def justify(
        self,
        informant: str,
        antecedents: Sequence[Node],
        consequent: Node,
        degree: float = 1.0,
    ) -> Justification:
        """Add ``antecedents -> consequent`` and propagate labels."""
        just = Justification(informant, tuple(antecedents), consequent, degree)
        consequent.justifications.append(just)
        for ant in just.antecedents:
            ant.consequences.append(just)
        envs = self._weave(just)
        self._enqueue_update(consequent, envs)
        self._drain()
        return just

    def declare_nogood(
        self, informant: str, antecedents: Sequence[Node], degree: float = 1.0
    ) -> Justification:
        """Declare the conjunction of ``antecedents`` contradictory."""
        return self.justify(informant, antecedents, self.contradiction, degree)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node(self, datum: str) -> Node:
        return self.nodes[datum]

    def assumptions(self) -> List[Node]:
        return [n for n in self.nodes.values() if n.is_assumption]

    def label(self, node: Node) -> List[Environment]:
        """Minimal supporting environments, smallest first."""
        return sorted(node.label, key=lambda e: (e.size, repr(e)))

    def is_in(self, node: Node, env: Optional[Environment] = None) -> bool:
        if env is None:
            return node.is_in
        return node.holds_in(env)

    def consistent(self, env: Environment) -> bool:
        """False when a nogood at or past the hard threshold is a subset of ``env``."""
        return not any(
            nogood.environment.is_subset(env)
            for nogood in self.nogoods.minimal(self.hard_threshold)
        )

    def conflict_degree(self, env: Environment) -> float:
        """Strongest degree at which ``env`` is known to conflict."""
        return max(
            (nogood.degree for nogood in self.nogoods if nogood.environment.is_subset(env)),
            default=0.0,
        )

    def minimal_nogoods(self, threshold: float = 0.0) -> List[WeightedNogood]:
        return self.nogoods.minimal(threshold)

    # ------------------------------------------------------------------
    # Label propagation
    # ------------------------------------------------------------------
    def _weave(
        self,
        just: Justification,
        trigger: Optional[Node] = None,
        trigger_envs: Optional[Dict[Environment, float]] = None,
    ) -> Dict[Environment, float]:
        """Candidate consequent environments from the antecedent labels.

        When ``trigger`` is given, that antecedent is restricted to its
        freshly added environments — the standard incremental weave.
        """
        acc: Dict[Environment, float] = {Environment.empty(): just.degree}
        for ant in just.antecedents:
            label = trigger_envs if ant is trigger else ant.label
            if not label:
                return {}
            nxt: Dict[Environment, float] = {}
            for env_a, d_a in acc.items():
                for env_b, d_b in label.items():
                    union = env_a.union(env_b)
                    if not self.consistent(union):
                        continue
                    degree = self.t_norm(d_a, d_b)
                    if degree <= 0.0:
                        continue
                    if nxt.get(union, 0.0) < degree:
                        nxt[union] = degree
            acc = _minimise(nxt)
            if not acc:
                return {}
        return acc

    def _enqueue_update(self, node: Node, envs: Dict[Environment, float]) -> None:
        if envs:
            self._queue.append((node, envs))

    @property
    def _queue(self) -> deque:
        # Lazily created so subclasses need not call super().__init__ first.
        queue = getattr(self, "_work_queue", None)
        if queue is None:
            queue = deque()
            self._work_queue = queue
        return queue

    def _drain(self) -> None:
        queue = self._queue
        while queue:
            node, envs = queue.popleft()
            added = self._update_label(node, envs)
            if not added:
                continue
            if node.is_contradiction:
                self._record_nogoods(added)
                node.label.clear()
                continue
            for just in node.consequences:
                woven = self._weave(just, trigger=node, trigger_envs=added)
                self._enqueue_update(just.consequent, woven)

    def _update_label(
        self, node: Node, envs: Dict[Environment, float]
    ) -> Dict[Environment, float]:
        """Merge candidate environments into a node label; return additions."""
        added: Dict[Environment, float] = {}
        for env, degree in envs.items():
            if not self.consistent(env):
                continue
            if any(
                e.is_subset(env) and node.label[e] >= degree for e in node.label
            ):
                continue
            doomed = [
                e
                for e in node.label
                if env.is_subset(e) and node.label[e] <= degree and e != env
            ]
            for e in doomed:
                del node.label[e]
                added.pop(e, None)
            node.label[env] = degree
            added[env] = degree
        return added

    def _record_nogoods(self, envs: Dict[Environment, float]) -> None:
        for env, degree in envs.items():
            if not self.nogoods.add(env, degree):
                continue
            if degree >= self.hard_threshold:
                self._retract(env)

    def _retract(self, nogood_env: Environment) -> None:
        """Remove the nogood environment and its supersets from every label."""
        for node in self.nodes.values():
            doomed = [e for e in node.label if nogood_env.is_subset(e)]
            for e in doomed:
                del node.label[e]

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def label_sizes(self) -> Dict[str, int]:
        """Number of label environments per node (label-growth metric)."""
        return {datum: len(node.label) for datum, node in self.nodes.items()}

    def stats(self) -> Dict[str, int]:
        return {
            "nodes": len(self.nodes),
            "assumptions": len(self.assumptions()),
            "justifications": sum(len(n.justifications) for n in self.nodes.values()),
            "nogoods": len(self.nogoods),
            "label_environments": sum(len(n.label) for n in self.nodes.values()),
        }


def _minimise(envs: Dict[Environment, float]) -> Dict[Environment, float]:
    """Drop environments subsumed by a subset at an equal-or-higher degree."""
    kept: Dict[Environment, float] = {}
    for env in sorted(envs, key=lambda e: (e.size, -envs[e])):
        degree = envs[env]
        if any(e.is_subset(env) and kept[e] >= degree for e in kept):
            continue
        kept[env] = degree
    return kept


class FuzzyATMS(ATMS):
    """ATMS over degree-weighted environments with soft conflicts."""

    def __init__(
        self, t_norm: TNorm = min, hard_threshold: float = 1.0
    ) -> None:
        super().__init__(t_norm=t_norm, hard_threshold=hard_threshold)
        self._disjunction_counter = 0

    # ------------------------------------------------------------------
    # Soft conflicts
    # ------------------------------------------------------------------
    def declare_soft_nogood(
        self, informant: str, antecedents: Sequence[Node], conflict_degree: float
    ) -> None:
        """Record a (possibly partial) conflict among ``antecedents``.

        ``conflict_degree`` is ``1 - Dc``: 1 means a frank conflict, lower
        values mean the discrepancy is only partially outside tolerance.
        Zero-degree "conflicts" are ignored (a corroboration is not a
        conflict — and, as the paper stresses, not an exoneration either).
        """
        if conflict_degree <= 0.0:
            return
        self.declare_nogood(informant, antecedents, min(conflict_degree, 1.0))

    def weighted_nogoods(self, threshold: float = 0.0) -> List[WeightedNogood]:
        """All recorded nogoods above ``threshold``, most serious first."""
        return self.nogoods.minimal(threshold)

    # ------------------------------------------------------------------
    # Non-Horn support
    # ------------------------------------------------------------------
    def add_disjunction(
        self, informant: str, disjuncts: Sequence[Node], degree: float = 1.0
    ) -> List[Node]:
        """Assert ``d1 or d2 or ... or dn`` (a non-Horn clause).

        Encoded with one fresh *choice assumption* per disjunct: choosing
        ``Ci`` justifies ``di``, and the set of all choices is exhaustive
        — any environment that makes every choice's negation hold is
        contradictory.  Concretely we justify each disjunct from its
        choice and declare every pair of choices mutually exclusive only
        implicitly (the ATMS reasons fine with overlapping choices; the
        exhaustiveness nogood is what encodes the disjunction).

        Returns the choice assumption nodes so callers can reason about
        the alternatives.
        """
        if not disjuncts:
            raise ValueError("a disjunction needs at least one disjunct")
        self._disjunction_counter += 1
        tag = f"choice#{self._disjunction_counter}"
        choices: List[Node] = []
        negations: List[Node] = []
        for i, disjunct in enumerate(disjuncts):
            choice = self.create_assumption(f"{tag}.{i}[{disjunct.datum}]")
            self.justify(informant, [choice], disjunct, degree)
            negation = self.create_assumption(f"not({tag}.{i})")
            self.declare_nogood(f"{informant}:excl", [choice, negation])
            choices.append(choice)
            negations.append(negation)
        # Exhaustiveness: rejecting every disjunct is contradictory.
        self.declare_nogood(f"{informant}:exhaust", negations, degree)
        return choices

    # ------------------------------------------------------------------
    # Candidate-facing queries
    # ------------------------------------------------------------------
    def assumption_suspicions(self, threshold: float = 0.0) -> Dict[Assumption, float]:
        """Max nogood degree per assumption — the paper's candidate order."""
        scores: Dict[Assumption, float] = {}
        for nogood in self.weighted_nogoods(threshold):
            for assumption in nogood.environment:
                if scores.get(assumption, 0.0) < nogood.degree:
                    scores[assumption] = nogood.degree
        return scores

    def environment_degree(self, env: Environment) -> float:
        """How consistent an environment still is: ``1 - conflict degree``."""
        return 1.0 - self.conflict_degree(env)
