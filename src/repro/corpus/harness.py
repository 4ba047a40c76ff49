"""The corpus benchmark/regression harness.

``run_corpus`` executes a :class:`~repro.corpus.scenarios.CorpusManifest`
through the fleet engine and folds the outcomes into a
:class:`CorpusReport`: rank-of-true-fault accuracy (hit\\@k and mean
rank) and latency percentiles, broken down per scenario class.

The *accuracy* half of a report is deterministic — same manifest, same
numbers, regardless of pool width or executor flavour — and
:meth:`CorpusReport.to_json` serialises exactly that half
(byte-identical across runs), so CI can diff it against a committed
floor.  The *latency* half is wall-clock and changes run to run; it is
carried separately and only included when explicitly asked for.

This module is a library first: the ``repro corpus`` CLI, the smoke
script, the benchmark and any fleet/server layer all call
:func:`run_corpus` / :func:`check_floor` rather than reimplementing
scoring.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.corpus.metrics import (
    low_degree_nogoods,
    rank_of_true_fault,
    scenario_hit,
)
from repro.core.diagnosis import FlamesConfig
from repro.corpus.scenarios import CorpusManifest, Scenario
from repro.service.jobs import DiagnosisJob, JobResult
from repro.service.telemetry import percentile
from repro.service.pool import FleetEngine

__all__ = [
    "ScenarioOutcome",
    "ClassStats",
    "CorpusReport",
    "run_corpus",
    "check_floor",
    "check_top_k",
    "DEFAULT_TOP_K",
]

DEFAULT_TOP_K: Tuple[int, ...] = (1, 3, 5)


def check_top_k(top_k: Sequence[int]) -> None:
    """A top-k cut-off counts the true fault among the first k: k >= 1."""
    bad = [k for k in top_k if k < 1]
    if bad:
        raise ValueError(f"top-k cut-offs must be at least 1, got {bad}")


@dataclass
class ScenarioOutcome:
    """One scenario's scored result."""

    id: str
    scenario_class: str
    status: str
    rank: Optional[int]
    hits: Dict[int, bool]
    low_degree: bool
    elapsed: float

    @property
    def completed(self) -> bool:
        return self.status in ("ok", "degraded")


@dataclass
class ClassStats:
    """Aggregated accuracy + latency for one scenario class."""

    n: int = 0
    failures: int = 0
    hits: Dict[int, int] = field(default_factory=dict)
    ranks: List[int] = field(default_factory=list)
    low_degree: int = 0
    latencies: List[float] = field(default_factory=list)

    def fold(self, outcome: ScenarioOutcome) -> None:
        self.n += 1
        if not outcome.completed:
            self.failures += 1
        for k, hit in outcome.hits.items():
            self.hits[k] = self.hits.get(k, 0) + (1 if hit else 0)
        if outcome.rank is not None:
            self.ranks.append(outcome.rank)
        if outcome.low_degree:
            self.low_degree += 1
        self.latencies.append(outcome.elapsed)

    def accuracy_dict(self) -> Dict:
        data: Dict = {
            "n": self.n,
            "failures": self.failures,
            "ranked_rate": round(len(self.ranks) / self.n, 6) if self.n else 0.0,
            "mean_rank": (
                round(sum(self.ranks) / len(self.ranks), 6) if self.ranks else None
            ),
            "low_degree_rate": round(self.low_degree / self.n, 6) if self.n else 0.0,
        }
        for k in sorted(self.hits):
            data[f"top{k}"] = round(self.hits[k] / self.n, 6) if self.n else 0.0
        return data

    def latency_dict(self) -> Dict:
        ordered = sorted(self.latencies)

        def ms(q: float) -> float:
            return round(percentile(ordered, q) * 1e3, 3) if ordered else 0.0

        return {
            "p50_ms": ms(0.50),
            "p95_ms": ms(0.95),
            "mean_ms": (
                round(sum(self.latencies) / len(self.latencies) * 1e3, 3)
                if self.latencies
                else 0.0
            ),
        }


@dataclass
class CorpusReport:
    """Everything one corpus run produced, per scenario class."""

    seed: int
    top_k: Tuple[int, ...]
    outcomes: List[ScenarioOutcome] = field(default_factory=list)

    def stats(self) -> Dict[str, ClassStats]:
        """``{class: ClassStats}`` plus an ``overall`` row."""
        table: Dict[str, ClassStats] = {}
        for outcome in self.outcomes:
            table.setdefault(outcome.scenario_class, ClassStats()).fold(outcome)
            table.setdefault("overall", ClassStats()).fold(outcome)
        return table

    def to_dict(self, include_latency: bool = False) -> Dict:
        """Machine-readable report.

        The default (``include_latency=False``) is the *canonical* form:
        accuracy only, deterministic for a given manifest, suitable for
        byte-for-byte diffing and floor checks.  Latency percentiles are
        wall-clock noise and only appear when asked for.  The table
        sits under ``"kernels"``, keyed by the engine's name
        (``FlamesConfig.kernel``), so the report schema is unchanged.
        """
        cell: Dict[str, Dict] = {}
        for name, stats in sorted(self.stats().items()):
            entry = {"accuracy": stats.accuracy_dict()}
            if include_latency:
                entry["latency"] = stats.latency_dict()
            cell[name] = entry
        return {
            "version": 1,
            "seed": self.seed,
            "top_k": list(self.top_k),
            "scenarios": len(self.outcomes),
            "kernels": {FlamesConfig.kernel: cell} if self.outcomes else {},
        }

    def to_json(self, include_latency: bool = False) -> str:
        return json.dumps(self.to_dict(include_latency), indent=2, sort_keys=True) + "\n"


def _score(scenario: Scenario, result: JobResult, top_k: Sequence[int]) -> ScenarioOutcome:
    diagnosis = result.diagnosis if result.completed else {}
    return ScenarioOutcome(
        id=scenario.id,
        scenario_class=scenario.scenario_class,
        status=result.status,
        rank=rank_of_true_fault(diagnosis, scenario.expected),
        hits={k: result.completed and scenario_hit(scenario.expected, diagnosis, k)
              for k in top_k},
        low_degree=low_degree_nogoods(diagnosis),
        elapsed=result.elapsed,
    )


def run_corpus(
    manifest: CorpusManifest,
    kernels: Sequence[str] = (FlamesConfig.kernel,),
    workers: int = 4,
    executor: str = "process",
    top_k: Sequence[int] = DEFAULT_TOP_K,
    engine: Optional[FleetEngine] = None,
) -> CorpusReport:
    """Execute every scenario and score the outcomes.

    ``kernels`` may only name the one engine (``FlamesConfig.kernel``);
    it is kept so existing callers keep working.  A
    caller-supplied ``engine`` (the fleet/server layers' resident one)
    is reused as-is; otherwise a throwaway pool of ``workers`` is spun
    up.  Scenario content is unique by construction, so the result
    cache never short-circuits a measurement.
    """
    check_top_k(top_k)
    for kernel in kernels:
        if kernel != FlamesConfig.kernel:
            raise ValueError(f"unknown kernel {kernel!r}; the engine is {FlamesConfig.kernel!r}")
    report = CorpusReport(seed=manifest.seed, top_k=tuple(top_k))
    jobs = [
        DiagnosisJob(unit=s.id, netlist_text=s.netlist_text, measurements=s.measurements)
        for s in manifest.scenarios
    ]
    owner = engine if engine is not None else FleetEngine(
        workers=workers, executor=executor, cache_size=16
    )
    batch = owner.run_batch(jobs)
    for scenario, result in zip(manifest.scenarios, batch.results):
        report.outcomes.append(_score(scenario, result, top_k))
    return report


def check_floor(report: CorpusReport, floor: Dict) -> List[str]:
    """Compare a report against a committed accuracy floor.

    ``floor`` holds minimum acceptable rates — ``{"top1": {"<class>":
    0.8, ..., "overall": 0.85}}``.  Returns human-readable breach
    descriptions (empty = the floor holds).
    """
    breaches: List[str] = []
    stats = report.stats()
    for metric, minimums in sorted((floor.get("floors") or floor).items()):
        if not isinstance(minimums, dict):
            continue
        for name, minimum in sorted(minimums.items()):
            if name not in stats:
                breaches.append(f"{name}: class missing from report")
                continue
            actual = stats[name].accuracy_dict().get(metric)
            if actual is None:
                breaches.append(f"{name}: metric {metric!r} missing")
            elif actual < float(minimum) - 1e-9:
                breaches.append(
                    f"{name}: {metric} {actual:.3f} < floor {float(minimum):.3f}"
                )
    return breaches
