"""Corpus scenarios: plain-data units of the accuracy regression floor.

A :class:`Scenario` is one generated unit under test, fully serialised:
the golden design (netlist text), the fuzzy bench readings, the injected
ground-truth defects and the scenario-class label.  A
:class:`CorpusManifest` is an ordered collection of scenarios plus the
``(seed, scenario classes)`` recipe that produced it — everything the
harness needs to re-run the corpus, and everything a
reviewer needs to see exactly what changed when the generator changes.

Determinism contract: building a manifest twice from the same recipe
yields byte-identical :meth:`CorpusManifest.to_json` output (the golden
snapshot tests and ``repro corpus`` CLI rely on it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.circuit.faults import Fault
from repro.circuit.measurements import MeasurementTuple
from repro.circuit.netlist import Circuit
from repro.circuit.spice import parse_netlist

__all__ = ["Scenario", "CorpusManifest", "MANIFEST_VERSION"]

#: Bumped when the serialised shape changes incompatibly.
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class Scenario:
    """One unit under test, fully described as plain data.

    Attributes:
        id: unique label within the manifest (``<class>-<seq>``).
        scenario_class: which generator family produced it (``single-hard``,
            ``intermittent``, ...).
        netlist_text: the golden design in the SPICE-subset card format.
        measurements: fuzzy bench readings as plain tuples.
        expected: ground truth — names of the components actually
            defective.  Empty for tolerance-stackup scenarios, where the
            correct answer is *no single culprit*.
        faults: the injected defects, serialised (empty for stackup,
            whose drift is pure tolerance noise rather than a defect).
        metadata: generator bookkeeping (topology family, size, drift
            magnitudes, intermittent presence mask ...) — documentation
            for humans and assertions for tests, never consumed by the
            harness's scoring.
    """

    id: str
    scenario_class: str
    netlist_text: str
    measurements: Tuple[MeasurementTuple, ...]
    expected: Tuple[str, ...] = ()
    faults: Tuple[Fault, ...] = ()
    metadata: Tuple[Tuple[str, object], ...] = ()

    def circuit(self) -> Circuit:
        return parse_netlist(self.netlist_text, name=self.id)

    @property
    def meta(self) -> Dict[str, object]:
        return dict(self.metadata)

    def to_dict(self) -> Dict:
        return {
            "id": self.id,
            "class": self.scenario_class,
            "netlist_text": self.netlist_text,
            "measurements": [list(m) for m in self.measurements],
            "expected": list(self.expected),
            "faults": [f.to_dict() for f in self.faults],
            "metadata": {k: v for k, v in self.metadata},
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Scenario":
        return cls(
            id=str(data["id"]),
            scenario_class=str(data["class"]),
            netlist_text=str(data["netlist_text"]),
            measurements=tuple(
                (str(m[0]), float(m[1]), float(m[2]), float(m[3]), float(m[4]))
                for m in data["measurements"]
            ),
            expected=tuple(str(c) for c in data.get("expected", [])),
            faults=tuple(Fault.from_dict(f) for f in data.get("faults", [])),
            metadata=tuple(sorted((data.get("metadata") or {}).items())),
        )


@dataclass
class CorpusManifest:
    """An ordered scenario corpus plus the recipe that generated it."""

    seed: int
    classes: List[str]
    per_class: int
    scenarios: List[Scenario] = field(default_factory=list)
    version: int = MANIFEST_VERSION

    def __len__(self) -> int:
        return len(self.scenarios)

    def to_dict(self) -> Dict:
        return {
            "version": self.version,
            "seed": self.seed,
            "classes": list(self.classes),
            "per_class": self.per_class,
            "scenarios": [s.to_dict() for s in self.scenarios],
        }

    def to_json(self) -> str:
        """Canonical byte-stable serialisation (sorted keys, 2-space indent)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Dict) -> "CorpusManifest":
        return cls(
            seed=int(data["seed"]),
            classes=[str(c) for c in data["classes"]],
            per_class=int(data["per_class"]),
            scenarios=[Scenario.from_dict(s) for s in data["scenarios"]],
            version=int(data.get("version", MANIFEST_VERSION)),
        )

    @classmethod
    def from_json(cls, text: str) -> "CorpusManifest":
        return cls.from_dict(json.loads(text))
