"""Scenario corpus at scale: seeded generation + accuracy regression.

The corpus plane turns the paper's handful of validation circuits into
thousands of deterministic scenarios — multi-fault units, intermittent
defects, temperature-coefficient drift sweeps, tolerance stackups —
and scores the engine against them: rank-of-true-fault accuracy and
latency percentiles per scenario class (see README "Corpus mode").

Entry points: :func:`generate_corpus` builds a manifest from a
``(seed, classes)`` recipe, :func:`run_corpus` executes one on the
fleet engine, :func:`check_floor` enforces the committed accuracy
floor (``scripts/corpus_floor.json``), and ``repro corpus`` is the
CLI over all three.
"""

from repro.corpus.generator import CLASSES, FAMILIES, class_rng, generate_corpus
from repro.corpus.harness import (
    DEFAULT_TOP_K,
    ClassStats,
    CorpusReport,
    ScenarioOutcome,
    check_floor,
    run_corpus,
)
from repro.corpus.metrics import (
    CERTAIN,
    low_degree_nogoods,
    no_certain_culprit,
    rank_of_true_fault,
    ranking_from_payload,
    scenario_hit,
)
from repro.corpus.scenarios import MANIFEST_VERSION, CorpusManifest, Scenario

__all__ = [
    "CLASSES",
    "FAMILIES",
    "class_rng",
    "generate_corpus",
    "DEFAULT_TOP_K",
    "ClassStats",
    "CorpusReport",
    "ScenarioOutcome",
    "check_floor",
    "run_corpus",
    "CERTAIN",
    "low_degree_nogoods",
    "no_certain_culprit",
    "rank_of_true_fault",
    "ranking_from_payload",
    "scenario_hit",
    "MANIFEST_VERSION",
    "CorpusManifest",
    "Scenario",
]
