"""Learning from experience (paper §7).

"When the system succeeds to locate a faulty component, a
symptom-failure rule which summarizes the work would be formed and an
estimation will be given to this component.  This rule is given with a
degree of certainty [...] in future diagnosis, FLAMES will give the
expert the rules which are attached to some candidates to help him in
making his decision."

A *symptom signature* abstracts one diagnosis outcome: per probe point,
the deviation direction and a coarse consistency bucket.  Episodes with
the same signature reinforce the induced symptom->failure rule; the
rule's certainty grows with repetition and is reported alongside the
candidates on later diagnoses of matching signatures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.diagnosis import DiagnosisResult

__all__ = [
    "SymptomSignature",
    "Episode",
    "LearnedRule",
    "ExperienceBase",
    "rule_identity",
]

#: Signature similarity at which a learned rule fires: 1.0 fires exact
#: matches only, lower values allow analogical matches.
MIN_SIMILARITY = 1.0

#: Consistency buckets: fully consistent / slightly off / partial / frank.
_BUCKETS = (
    (0.999, "consistent"),
    (0.85, "slight"),
    (0.25, "partial"),
    (-1.0, "conflict"),
)


def _bucket(degree: float) -> str:
    for threshold, label in _BUCKETS:
        if degree >= threshold:
            return label
    return "conflict"  # pragma: no cover - the table is exhaustive


def rule_identity(
    signature: Union["SymptomSignature", Sequence[Sequence]],
    component: str,
    mode: str = "",
) -> str:
    """Canonical string identity of one symptom->failure rule.

    Two rules are "the same rule" when their sorted signature entries,
    component and mode all match — the equality `record`/`merge` use.
    This renders that triple as one canonical JSON string so it can key
    dictionaries, sqlite rows and gossip ledgers interchangeably,
    whatever mix of tuples/lists the signature arrives as.
    """
    if isinstance(signature, SymptomSignature):
        entries = signature.entries
    else:
        entries = tuple(sorted((str(p), str(b), int(d)) for p, b, d in signature))
    return json.dumps(
        [[list(e) for e in entries], str(component), str(mode)],
        separators=(",", ":"),
    )


@dataclass(frozen=True)
class SymptomSignature:
    """Qualitative abstraction of a diagnosis's consistency table.

    ``entries`` is a sorted tuple of ``(probe, bucket, direction)``.
    """

    entries: Tuple[Tuple[str, str, int], ...]

    @classmethod
    def from_result(cls, result: DiagnosisResult) -> "SymptomSignature":
        entries = tuple(
            sorted(
                (point, _bucket(cons.degree), cons.direction)
                for point, cons in result.consistencies.items()
            )
        )
        return cls(entries)

    def similarity(self, other: "SymptomSignature") -> float:
        """Fraction of probe entries that agree (0 when probes differ)."""
        mine = {p: (b, d) for p, b, d in self.entries}
        theirs = {p: (b, d) for p, b, d in other.entries}
        shared = set(mine) & set(theirs)
        if not shared or set(mine) != set(theirs):
            return 0.0 if not shared else (
                sum(1.0 for p in shared if mine[p] == theirs[p]) / max(len(mine), len(theirs))
            )
        return sum(1.0 for p in shared if mine[p] == theirs[p]) / len(shared)

    def to_list(self) -> List[List]:
        """JSON-friendly representation."""
        return [[p, b, d] for p, b, d in self.entries]

    @classmethod
    def from_list(cls, data: Sequence[Sequence]) -> "SymptomSignature":
        return cls(tuple(sorted((str(p), str(b), int(d)) for p, b, d in data)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"{p}:{b}{'+' if d > 0 else '-' if d < 0 else '='}" for p, b, d in self.entries]
        return "sig(" + ",".join(parts) + ")"


@dataclass(frozen=True)
class Episode:
    """One confirmed diagnosis: the symptoms and the verified culprit."""

    signature: SymptomSignature
    component: str
    mode: str = ""


@dataclass
class LearnedRule:
    """An induced symptom->failure rule with a certainty degree."""

    signature: SymptomSignature
    component: str
    mode: str
    certainty: float
    occurrences: int = 1

    def reinforce(self, base_certainty: float) -> None:
        """Repetition increases certainty asymptotically toward 1."""
        self.occurrences += 1
        self.certainty = 1.0 - (1.0 - self.certainty) * (1.0 - base_certainty)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = f"/{self.mode}" if self.mode else ""
        return f"{self.signature!r} => {self.component}{mode} @{self.certainty:.2f} (x{self.occurrences})"


class ExperienceBase:
    """Stores episodes and induces symptom-failure rules.

    ``base_certainty`` is the confidence granted to a rule after a single
    confirming episode (the paper attaches "a degree of certainty which
    is compatible with fuzzy logic ... and with the complex nature of
    analog circuits" — a single observation never yields certainty 1).
    """

    def __init__(self, base_certainty: float = 0.6) -> None:
        if not 0.0 < base_certainty < 1.0:
            raise ValueError("base certainty must be in (0, 1)")
        self.base_certainty = base_certainty
        self.rules: List[LearnedRule] = []
        self.episode_count = 0

    def __len__(self) -> int:
        return len(self.rules)

    # ------------------------------------------------------------------
    def _find(self, identity: str) -> "Optional[LearnedRule]":
        """The stored rule with this :func:`rule_identity`, if any."""
        for rule in self.rules:
            if rule_identity(rule.signature, rule.component, rule.mode) == identity:
                return rule
        return None

    def record(self, episode: Episode) -> LearnedRule:
        """Store a confirmed diagnosis; induce or reinforce its rule."""
        self.episode_count += 1
        rule = self._find(
            rule_identity(episode.signature, episode.component, episode.mode)
        )
        if rule is not None:
            rule.reinforce(self.base_certainty)
            return rule
        rule = LearnedRule(
            episode.signature, episode.component, episode.mode, self.base_certainty
        )
        self.rules.append(rule)
        return rule

    def record_result(
        self, result: DiagnosisResult, component: str, mode: str = ""
    ) -> LearnedRule:
        """Convenience: record a confirmed :class:`DiagnosisResult`."""
        return self.record(Episode(SymptomSignature.from_result(result), component, mode))

    # ------------------------------------------------------------------
    def suggest(self, signature: SymptomSignature) -> List[Tuple[LearnedRule, float]]:
        """Rules matching a new symptom signature, best first.

        Each hit is returned with its effective weight
        ``min(similarity, certainty)``; a rule fires at
        :data:`MIN_SIMILARITY` or above.
        """
        hits: List[Tuple[LearnedRule, float]] = []
        for rule in self.rules:
            similarity = rule.signature.similarity(signature)
            if similarity >= MIN_SIMILARITY:
                hits.append((rule, min(similarity, rule.certainty)))
        hits.sort(key=lambda rw: (-rw[1], rw[0].component))
        return hits

    # ------------------------------------------------------------------
    def merge(self, other: "ExperienceBase") -> "ExperienceBase":
        """Fold another shop's rules into this base (in place).

        Used by the fleet service to combine the experience gathered by
        a batch of worker sessions back into the shared base.  Matching
        rules (same signature, component and mode) combine certainties
        the same way repetition does — ``1 - (1-c1)(1-c2)`` — and sum
        occurrence counts; new rules are copied over.
        """
        for rule in other.rules:
            mine = self._find(rule_identity(rule.signature, rule.component, rule.mode))
            if mine is not None:
                mine.occurrences += rule.occurrences
                mine.certainty = 1.0 - (1.0 - mine.certainty) * (1.0 - rule.certainty)
            else:
                self.rules.append(
                    LearnedRule(
                        rule.signature,
                        rule.component,
                        rule.mode,
                        rule.certainty,
                        rule.occurrences,
                    )
                )
        self.episode_count += other.episode_count
        return self

    # ------------------------------------------------------------------
    # Persistence: the repair shop's memory outlives the process.
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "base_certainty": self.base_certainty,
            "episode_count": self.episode_count,
            "rules": [
                {
                    "signature": rule.signature.to_list(),
                    "component": rule.component,
                    "mode": rule.mode,
                    "certainty": rule.certainty,
                    "occurrences": rule.occurrences,
                }
                for rule in self.rules
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperienceBase":
        base = cls(base_certainty=float(data["base_certainty"]))
        base.episode_count = int(data.get("episode_count", 0))
        for entry in data.get("rules", []):
            base.rules.append(
                LearnedRule(
                    SymptomSignature.from_list(entry["signature"]),
                    str(entry["component"]),
                    str(entry.get("mode", "")),
                    float(entry["certainty"]),
                    int(entry.get("occurrences", 1)),
                )
            )
        return base

    def save(self, path: "Union[str, Path]") -> None:
        """Write the experience base to a JSON file."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: "Union[str, Path]") -> "ExperienceBase":
        """Read an experience base saved by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    def boost_suspicions(
        self, suspicions: Dict[str, float], signature: SymptomSignature
    ) -> Dict[str, float]:
        """Re-rank suspicions using learned rules.

        Returns *ranking scores* (may exceed 1): a matching rule adds its
        weight on top of the evidence-based suspicion, which breaks the
        ties the ATMS alone leaves (a nogood implicates all its members
        equally; experience says which member it usually was).  Past
        experience supplements, never overrides, the current evidence —
        a component with zero suspicion gains at most the rule weight.
        """
        boosted = dict(suspicions)
        for rule, weight in self.suggest(signature):
            boosted[rule.component] = boosted.get(rule.component, 0.0) + weight
        return boosted
