"""Measurement-order invariance of one-shot diagnosis.

The service's result cache keys on the *sorted* measurement set
(``DiagnosisJob.content_hash``) while the pipeline asserts measurements
in the order the caller sent them.  That is only sound if a one-shot
diagnosis does not depend on measurement order, so these tests pin it:
a hypothesis property on a seed-101 corpus slice (one scenario per
class), and fixed shuffles of the figure-7 defects at 1% and 5%
imprecision, the three golden scenarios and early ladder-12 defects.
Any permutation of a unit's measurements must give a byte-identical
``diagnosis_to_dict``, apart from the echoed measurement list.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.faults import Fault, FaultKind, apply_fault
from repro.circuit.generators import resistor_ladder
from repro.circuit.library import three_stage_amplifier
from repro.circuit.measurements import Measurement, probe_all
from repro.circuit.simulate import DCSolver
from repro.core.diagnosis import Flames
from repro.corpus import generate_corpus
from repro.service.jobs import diagnosis_to_dict
from tests.golden.scenarios import SCENARIOS as GOLDEN_SCENARIOS

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
        _BASELINES[index] = _canonical(_ENGINES[index], [Measurement.from_tuple(m) for m in scenario.measurements])
    return _BASELINES[index]


@st.composite
def _permuted_scenario(draw):
    index = draw(st.integers(min_value=0, max_value=len(SCENARIOS) - 1))
    measurements = [Measurement.from_tuple(m) for m in SCENARIOS[index].measurements]
    return index, draw(st.permutations(measurements))


@given(_permuted_scenario())
@settings(max_examples=24, deadline=None)
def test_permuted_measurements_give_identical_diagnosis(case):
    index, permuted = case
    expected = _baseline(index)
    assert _canonical(_ENGINES[index], permuted) == expected, SCENARIOS[index].id


# ----------------------------------------------------------------------
# Fixed cases: figure 7, the golden scenarios and early ladder-12 defects
# ----------------------------------------------------------------------
FIG7_FAULTS = (
    Fault(FaultKind.SHORT, "R2"),
    Fault(FaultKind.OPEN, "R3"),
    Fault(FaultKind.PARAM, "R2", parameter="resistance", value=12.18e3),
    Fault(FaultKind.PARAM, "T2", parameter="beta", value=194.0),
    Fault(FaultKind.PARAM, "R4", parameter="resistance", value=3.6e3),
    Fault(FaultKind.PARAM, "R6", parameter="resistance", value=1.5e3),
    Fault(FaultKind.SHORT, "R5"),
    Fault(FaultKind.PARAM, "R1", parameter="resistance", value=240e3),
)
LADDER_FAULTS = (
    Fault(FaultKind.OPEN, "Rs2"),
    Fault(FaultKind.SHORT, "Rp3"),
    Fault(FaultKind.OPEN, "Rp7"),
)
LADDER_PROBES = ("n2", "n4", "n6", "n8", "n10", "n12")

CASES = {
    **{
        f"fig7-{fault.component}-{fault.kind.value}-{imprecision}": (
            three_stage_amplifier, fault, ("vs", "v2", "v1"), imprecision,
        )
        for fault in FIG7_FAULTS
        for imprecision in (0.01, 0.05)
    },
    **{
        f"golden-{name}": (maker, fault, tuple(nets), 0.02)
        for name, (maker, fault, nets) in GOLDEN_SCENARIOS.items()
    },
    **{
        f"ladder12-{fault.component}-{fault.kind.value}": (
            lambda: resistor_ladder(12), fault, LADDER_PROBES, 0.02,
        )
        for fault in LADDER_FAULTS
    },
}
SHUFFLES = 4


def _payload(engine, measurements):
    payload = diagnosis_to_dict(engine.diagnose(measurements))
    echoed = payload.pop("measurements")
    return json.dumps(payload, sort_keys=True), sorted(json.dumps(m) for m in echoed)


@pytest.mark.parametrize("case", sorted(CASES))
def test_shuffled_measurements_give_the_same_diagnosis(case):
    """Any order of one unit's measurements gives the same diagnosis.

    Every field of ``diagnosis_to_dict`` must match exactly except the
    ``measurements`` echo, which follows the caller's order and is
    compared as a multiset.  The result cache keys on the sorted set, so
    a cache hit returns the first caller's echo order.
    """
    maker, fault, nets, imprecision = CASES[case]
    golden = maker()
    op = DCSolver(apply_fault(golden, fault)).solve()
    measurements = probe_all(op, nets, imprecision=imprecision)
    engine = Flames(golden)
    expected = _payload(engine, measurements)
    rng = random.Random(case)
    for _ in range(SHUFFLES):
        shuffled = list(measurements)
        rng.shuffle(shuffled)
        assert _payload(engine, shuffled) == expected, [m.point for m in shuffled]
