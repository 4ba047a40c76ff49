"""The shared model database: one per netlist text, exact by construction.

``execute_job`` reads design modes, nominal predictions and fault
simulations from a per-process :func:`~repro.core.model.shared_model`.
These tests pin that a warm shared model changes no diagnosis, that it
really is warm (no nominal rebuild), that it keys on the exact text,
that failures are not cached, that the LRU stays bounded and that the
shared data cannot be written to.
"""

import json
import random
import threading

import pytest

from repro.circuit.faults import Fault, FaultKind, apply_fault
from repro.circuit.generators import resistor_ladder
from repro.circuit.library import three_stage_amplifier
from repro.circuit.measurements import Measurement, probe_all
from repro.circuit.simulate import DCSolver
from repro.circuit.spice import parse_netlist, write_netlist
from repro.core import model as model_mod
from repro.core.diagnosis import Flames
from repro.core.knowledge import KnowledgeBase
from repro.core.model import MODEL_CACHE_SIZE, CircuitModel, clear_models, shared_model
from repro.fuzzy import FuzzyInterval
from repro.service.jobs import DiagnosisJob, diagnosis_to_dict
from repro.service.pool import execute_job

FIG7_PROBES = ("vs", "v2", "v1")
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

LADDER_PROBES = ("n5", "n10", "n20", "n30", "n40")
#: The server workload's four ladder-40 defects, plus the slow
#: early-section open Rs2.
LADDER_FAULTS = (
    Fault(FaultKind.OPEN, "Rp7"),
    Fault(FaultKind.SHORT, "Rp20"),
    Fault(FaultKind.OPEN, "Rs15"),
    Fault(FaultKind.PARAM, "Rs30", parameter="resistance", value=30e3),
    Fault(FaultKind.OPEN, "Rs2"),
)

UNSOLVABLE = ".title loop\nV1 a 0 5\nV2 a 0 3\nR1 a 0 1k\n.end\n"


@pytest.fixture(autouse=True)
def cold_models():
    """Every test starts and ends with no shared model in the process."""
    clear_models()
    yield
    clear_models()


def _jobs(golden, faults, probes, imprecision=0.02, netlist=None):
    netlist = netlist if netlist is not None else write_netlist(golden)
    return [
        DiagnosisJob.build(
            f"unit-{i}",
            netlist,
            probe_all(DCSolver(apply_fault(golden, fault)).solve(), probes, imprecision),
        )
        for i, fault in enumerate(faults)
    ]


def _healthy_job(golden, probes, netlist=None):
    netlist = netlist if netlist is not None else write_netlist(golden)
    bench = probe_all(DCSolver(golden).solve(), probes, imprecision=0.03)
    return DiagnosisJob.build("warm-up", netlist, bench)


def _canonical(diagnosis):
    return json.dumps(diagnosis, sort_keys=True)


def _private(job):
    """``execute_job``'s diagnosis computed with private models only."""
    circuit = job.circuit()
    measurements = job.to_measurements()
    result = Flames(circuit, job.flames_config()).diagnose(measurements)
    refinements = None
    if not result.is_consistent:
        refinements = KnowledgeBase(circuit).refine(result.suspicions, measurements, top_k=5)
    return _canonical(diagnosis_to_dict(result, refinements))


def _shuffled(netlist, seed):
    """The same cards in another order (``.title`` stays first)."""
    title, *cards = netlist.strip().splitlines()
    random.Random(seed).shuffle(cards)
    return "\n".join([title, *cards]) + "\n"


def _nominal_span(trace):
    (root,) = trace["spans"]
    return next(span for span in root["children"] if span["name"] == "nominal")


@pytest.mark.parametrize(
    "golden, faults, probes",
    [
        (three_stage_amplifier(), FIG7_FAULTS, FIG7_PROBES),
        (resistor_ladder(40), LADDER_FAULTS, LADDER_PROBES),
    ],
    ids=["figure7", "ladder40"],
)
def test_warm_shared_model_matches_private(golden, faults, probes):
    warm_up = _healthy_job(golden, probes)
    cold = execute_job(warm_up, tracing=True)
    assert cold["status"] == "ok"
    assert _nominal_span(cold["trace"])["meta"]["model"] == "miss"
    model = shared_model(warm_up.netlist_text)
    assert model.nominal_builds == 1

    for job in _jobs(golden, faults, probes):
        payload = execute_job(job, tracing=True)
        assert payload["status"] == "ok", payload.get("error")
        assert _nominal_span(payload["trace"])["meta"]["model"] == "hit"
        assert _canonical(payload["diagnosis"]) == _private(job), job.unit
    assert model.nominal_builds == 1  # the warm pass built nothing
    assert model.fault_simulations > 0


def test_repeated_fault_hypotheses_simulate_once():
    golden = three_stage_amplifier()
    job = _jobs(golden, FIG7_FAULTS[:1], FIG7_PROBES)[0]
    first = execute_job(job)
    model = shared_model(job.netlist_text)
    simulations = model.fault_simulations
    assert first["diagnosis"]["refinements"] and simulations > 0
    second = execute_job(job)
    assert model.fault_simulations == simulations
    assert second["diagnosis"] == first["diagnosis"]


def test_card_orders_get_distinct_models():
    golden = three_stage_amplifier()
    netlist = write_netlist(golden)
    other = _shuffled(netlist, seed=7)
    assert other != netlist
    assert parse_netlist(other).fingerprint() == parse_netlist(netlist).fingerprint()
    for text in (netlist, other):
        job = _jobs(golden, FIG7_FAULTS[:1], FIG7_PROBES, netlist=text)[0]
        assert execute_job(job)["status"] == "ok"
        assert _canonical(execute_job(job)["diagnosis"]) == _private(job)
    assert shared_model(netlist) is not shared_model(other)
    assert shared_model(netlist).nominal_builds == 1
    assert shared_model(other).nominal_builds == 1


def test_unsolvable_golden_fails_the_same_way_and_is_not_cached():
    bench = [Measurement("V(a)", FuzzyInterval.number(5.0, 0.02))]
    job = DiagnosisJob.build("loop", UNSOLVABLE, bench)
    first = execute_job(job)
    second = execute_job(job)
    assert first["status"] == second["status"] == "error"
    assert first["error"].splitlines()[0] == second["error"].splitlines()[0]
    assert first["error"].startswith("SimulationError")
    model = shared_model(UNSOLVABLE)
    assert model.nominal_builds == 0
    with pytest.raises(Exception, match="no consistent operating point"):
        model.nominal(parse_netlist(UNSOLVABLE))


def test_lru_never_exceeds_its_bound():
    texts = [f".title unit {i}\n" for i in range(MODEL_CACHE_SIZE + 5)]
    first = shared_model(texts[0])
    for text in texts[1:MODEL_CACHE_SIZE]:
        shared_model(text)
    assert shared_model(texts[0]) is first  # a hit refreshes its place
    for text in texts[MODEL_CACHE_SIZE:]:
        shared_model(text)
        assert len(model_mod._models) <= MODEL_CACHE_SIZE
    assert len(model_mod._models) == MODEL_CACHE_SIZE
    assert texts[0] in model_mod._models
    assert texts[1] not in model_mod._models


def test_shared_data_is_read_only():
    golden = three_stage_amplifier()
    model = CircuitModel()
    nominal, held = model.nominal(golden)
    assert not held
    assert model.nominal(golden) == (nominal, True)
    with pytest.raises(TypeError):
        nominal["V(vs)"] = nominal["V(v1)"]  # type: ignore[index]
    modes = model.design_modes(golden)
    with pytest.raises(TypeError):
        modes["T1"] = "cutoff"  # type: ignore[index]
    voltages = model.fault_voltages(golden, FIG7_FAULTS[0])
    with pytest.raises(TypeError):
        voltages["vs"] = 0.0  # type: ignore[index]
    engine = Flames(golden, model=model)
    engine.predictions()
    assert engine._nominal is nominal


def test_private_models_are_not_shared():
    golden = three_stage_amplifier()
    assert Flames(golden).model is not Flames(golden).model
    assert KnowledgeBase(golden).model is not KnowledgeBase(golden).model


def test_concurrent_cold_jobs_build_the_model_once(monkeypatch):
    golden = three_stage_amplifier()
    jobs = _jobs(golden, FIG7_FAULTS[:4], FIG7_PROBES)
    serial = [_private(job) for job in jobs]

    builds = []
    real = model_mod.predict_nominal

    def counting(circuit):
        builds.append(circuit.name)
        return real(circuit)

    monkeypatch.setattr(model_mod, "predict_nominal", counting)
    barrier = threading.Barrier(len(jobs))
    payloads = [None] * len(jobs)

    def run(index):
        barrier.wait()
        payloads[index] = execute_job(jobs[index])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert len(builds) == 1
    assert shared_model(jobs[0].netlist_text).nominal_builds == 1
    for payload, expected in zip(payloads, serial):
        assert payload["status"] == "ok"
        assert _canonical(payload["diagnosis"]) == expected
