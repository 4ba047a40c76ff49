"""Tick-skip differential over every corpus scenario class.

One small seeded corpus (two scenarios per class) runs scenario by
scenario with the propagator's change-tick skip on and off (see
``tests/core/test_tick_skip.py``); the full ranked candidate list,
suspicion degrees and weighted-nogood structure must agree to 1e-9.
Intermittent
scenarios additionally assert the fuzzy-ATMS signature the corpus
generator promises: at least one *low-degree* nogood — a weighted
nogood whose inconsistency degree is strictly inside (0, 1) — with the
true culprit among the suspects.
"""

import math

import pytest

from repro.circuit.measurements import Measurement
from repro.corpus import CERTAIN, CLASSES, generate_corpus, ranking_from_payload
from repro.service.jobs import diagnosis_to_dict
from tests.core.test_tick_skip import ENGINES

SEED = 29
PER_CLASS = 2
TOL = 1e-9


def _of_class(manifest, scenario_class):
    return [s for s in manifest.scenarios if s.scenario_class == scenario_class]


@pytest.fixture(scope="module")
def payloads():
    """{(scenario id, engine): diagnosis payload} for the whole corpus."""
    manifest = generate_corpus(SEED, PER_CLASS)
    table = {}
    for scenario in manifest.scenarios:
        for name, engine_cls in ENGINES.items():
            result = engine_cls(scenario.circuit()).diagnose([Measurement.from_tuple(m) for m in scenario.measurements])
            table[(scenario.id, name)] = diagnosis_to_dict(result)
    return manifest, table


@pytest.mark.parametrize("scenario_class", CLASSES)
def test_identical_ranked_candidates(scenario_class, payloads):
    manifest, table = payloads
    scenarios = _of_class(manifest, scenario_class)
    assert len(scenarios) == PER_CLASS
    for scenario in scenarios:
        ref = table[(scenario.id, "noskip")]
        skip = table[(scenario.id, "skip")]
        assert ref["status"] == skip["status"], scenario.id

        ranked_ref = ranking_from_payload(ref)
        ranked_skip = ranking_from_payload(skip)
        assert [c for c, _ in ranked_ref] == [c for c, _ in ranked_skip], scenario.id
        for (_, dr), (_, df) in zip(ranked_ref, ranked_skip):
            assert math.isclose(dr, df, rel_tol=0, abs_tol=TOL), scenario.id

        ng_ref = sorted((tuple(ng["components"]), ng["degree"]) for ng in ref["nogoods"])
        ng_skip = sorted((tuple(ng["components"]), ng["degree"]) for ng in skip["nogoods"])
        assert [k for k, _ in ng_ref] == [k for k, _ in ng_skip], scenario.id
        for (_, dr), (_, df) in zip(ng_ref, ng_skip):
            assert math.isclose(dr, df, rel_tol=0, abs_tol=TOL), scenario.id

        cand_ref = [(tuple(c["components"]), c["degree"]) for c in ref["candidates"]]
        cand_skip = [(tuple(c["components"]), c["degree"]) for c in skip["candidates"]]
        assert [k for k, _ in cand_ref] == [k for k, _ in cand_skip], scenario.id
        for (_, dr), (_, df) in zip(cand_ref, cand_skip):
            assert math.isclose(dr, df, rel_tol=0, abs_tol=TOL), scenario.id


def test_intermittent_scenarios_surface_low_degree_nogoods(payloads):
    manifest, table = payloads
    for scenario in _of_class(manifest, "intermittent"):
        for engine in ENGINES:
            payload = table[(scenario.id, engine)]
            degrees = [ng["degree"] for ng in payload["nogoods"]]
            assert degrees, f"{scenario.id}/{engine}: no nogoods at all"
            partial = [d for d in degrees if 1e-6 < d < CERTAIN]
            assert partial, (
                f"{scenario.id}/{engine}: no low-degree nogood "
                f"(degrees: {[round(d, 6) for d in degrees]})"
            )
            culprit = scenario.expected[0]
            assert culprit in payload["suspicions"], (
                f"{scenario.id}/{engine}: culprit {culprit} not among suspects"
            )


def test_persistent_hard_faults_pin_full_degree(payloads):
    """The contrast that makes low-degree meaningful: a persistent hard
    defect produces at least one frankly inconsistent (degree 1) nogood."""
    manifest, table = payloads
    for scenario in _of_class(manifest, "single-hard"):
        for engine in ENGINES:
            degrees = [
                ng["degree"] for ng in table[(scenario.id, engine)]["nogoods"]
            ]
            assert degrees, f"{scenario.id}/{engine}: no nogoods at all"
            assert any(d >= CERTAIN for d in degrees), (
                f"{scenario.id}/{engine}: persistent defect without a "
                f"full-degree nogood (degrees: {[round(d, 6) for d in degrees]})"
            )
