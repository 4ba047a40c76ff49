"""Golden-file snapshots of full diagnoses on three library circuits.

Each snapshot is the complete ``diagnosis_to_dict`` payload recorded by
the engine (regenerate with ``python tests/golden/scenarios.py`` after
an intentional semantic change).  The test replays every scenario and
compares field by field — exact for structure, 1e-9 for floats — so a
silent behaviour drift shows up as a named-field diff, not a blob
mismatch.
"""

import json
import math

import pytest

from tests.golden.scenarios import SCENARIOS, golden_path, run_scenario

TOL = 1e-9


def _assert_matches(actual, expected, path=""):
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: expected object"
        assert sorted(actual) == sorted(expected), f"{path}: keys differ"
        for key in expected:
            _assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{path}: expected array"
        assert len(actual) == len(expected), f"{path}: length differs"
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_matches(a, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(actual, (int, float)), f"{path}: expected number"
        assert math.isclose(actual, expected, rel_tol=0, abs_tol=TOL), (
            f"{path}: {actual!r} != {expected!r}"
        )
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_diagnosis_matches_golden(name):
    expected = json.loads(golden_path(name).read_text())
    actual = run_scenario(name)
    _assert_matches(actual, expected, path=name)
