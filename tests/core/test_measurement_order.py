"""Measurement-order invariance of one-shot diagnosis.

The service's result cache keys on the *sorted* measurement set
(``DiagnosisJob.content_hash``) while the pipeline asserts measurements
in the order the caller sent them.  That is only sound if a one-shot
diagnosis does not depend on measurement order, so this property pins
it on a seed-101 corpus slice (one scenario per class): any permutation
of a scenario's measurements must give a byte-identical
``diagnosis_to_dict``, ignoring the echoed measurement list.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diagnosis import Flames
from repro.corpus import generate_corpus
from repro.service.jobs import diagnosis_to_dict

SCENARIOS = generate_corpus(101, 1).scenarios
_ENGINES = {}
_BASELINES = {}


def _canonical(engine, measurements):
    payload = diagnosis_to_dict(engine.diagnose(measurements))
    del payload["measurements"]  # the echo follows the caller's order
    return json.dumps(payload, sort_keys=True)


def _baseline(index):
    if index not in _BASELINES:
        scenario = SCENARIOS[index]
        _ENGINES[index] = Flames(scenario.circuit())
        _BASELINES[index] = _canonical(_ENGINES[index], scenario.to_measurements())
    return _BASELINES[index]


@st.composite
def _permuted_scenario(draw):
    index = draw(st.integers(min_value=0, max_value=len(SCENARIOS) - 1))
    measurements = SCENARIOS[index].to_measurements()
    return index, draw(st.permutations(measurements))


@given(_permuted_scenario())
@settings(max_examples=24, deadline=None)
def test_permuted_measurements_give_identical_diagnosis(case):
    index, permuted = case
    expected = _baseline(index)
    assert _canonical(_ENGINES[index], permuted) == expected, SCENARIOS[index].id
