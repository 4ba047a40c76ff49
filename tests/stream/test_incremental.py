"""Differential and contract tests for the prefix-checkpoint chain.

The load-bearing property: a warm engine's tick after a change is
observationally identical to a *cold* engine replaying the same
absorption sequence in the same order.  (One-shot
``Flames.diagnose`` is a different, order-insensitive contract; see the
module docstring of ``repro.stream.incremental``.)
"""

import pytest

from repro.circuit.faults import Fault, FaultKind, apply_fault
from repro.circuit.generators import resistor_ladder
from repro.circuit.measurements import Measurement, probe_all
from repro.circuit.simulate import DCSolver
from repro.core.diagnosis import Flames
from repro.fuzzy import FuzzyInterval
from repro.runtime.context import RunContext
from repro.stream.incremental import IncrementalDiagnosisEngine

SECTIONS = 4
NETS = [f"n{i}" for i in range(1, SECTIONS + 1)]
IMPRECISION = 0.05


@pytest.fixture(scope="module")
def circuit():
    return resistor_ladder(SECTIONS)


def measurements_for(circuit, fault=None):
    unit = apply_fault(circuit, fault) if fault else circuit
    op = DCSolver(unit).solve()
    return probe_all(op, NETS, imprecision=IMPRECISION)


def replace(measurements, point, volts):
    return [
        Measurement(m.point, FuzzyInterval.number(volts, IMPRECISION))
        if m.point == point
        else m
        for m in measurements
    ]


def cold_replay(circuit, order, measurements):
    """A fresh engine absorbing the same sequence in the same order."""
    fresh = IncrementalDiagnosisEngine(Flames(circuit))
    by_point = {m.point: m for m in measurements}
    return fresh.diagnose([by_point[p] for p in order])


def assert_same_result(a, b):
    assert a.ranked_components() == b.ranked_components()
    assert [d.components for d in a.diagnoses] == [d.components for d in b.diagnoses]
    assert a.is_consistent == b.is_consistent


class TestDifferential:
    def test_single_change_matches_cold_replay(self, circuit):
        warm = IncrementalDiagnosisEngine(Flames(circuit))
        healthy = measurements_for(circuit)
        baseline = warm.diagnose(healthy)
        assert baseline.is_consistent

        # One net drifts (the faulty unit's reading at n2).
        faulty = measurements_for(circuit, Fault(FaultKind.SHORT, "Rp2"))
        drifted = dict((m.point, m) for m in faulty)["V(n2)"]
        changed = replace(healthy, "V(n2)", drifted.value.centroid)

        result = warm.diagnose(changed)
        stats = warm.last_stats
        assert stats.incremental, "a single change must reuse some prefix"
        # First drift of V(n2): only the chain steps *before* its old
        # position survive; the reorder moves it to the back for later.
        assert stats.reused_prefix == 1
        assert not result.is_consistent
        assert_same_result(
            result, cold_replay(circuit, warm.order, changed)
        )

        # Second drift of the same net: now it sits at the back of the
        # chain, so everything else is reusable prefix — the steady
        # state of a stream where one net keeps drifting.
        drifted_more = replace(healthy, "V(n2)", drifted.value.centroid * 1.01)
        again = warm.diagnose(drifted_more)
        stats = warm.last_stats
        assert stats.reused_prefix == len(NETS) - 1
        assert stats.recomputed == 1
        assert_same_result(
            again, cold_replay(circuit, warm.order, drifted_more)
        )

    def test_faulty_snapshot_matches_cold_replay(self, circuit):
        warm = IncrementalDiagnosisEngine(Flames(circuit))
        warm.diagnose(measurements_for(circuit))
        faulty = measurements_for(circuit, Fault(FaultKind.OPEN, "Rs3"))
        result = warm.diagnose(faulty)
        assert_same_result(
            result, cold_replay(circuit, warm.order, faulty)
        )
        # The true fault appears in the minimal candidates.
        flat = {c for d in result.diagnoses for c in d.components}
        assert "Rs3" in flat

    def test_unchanged_snapshot_is_all_prefix(self, circuit):
        warm = IncrementalDiagnosisEngine(Flames(circuit))
        healthy = measurements_for(circuit)
        first = warm.diagnose(healthy)
        second = warm.diagnose(list(healthy))
        assert warm.last_stats.reused_prefix == len(NETS)
        assert warm.last_stats.recomputed == 0
        assert warm.last_stats.propagation_steps == 0
        assert_same_result(first, second)


class TestChainContract:
    def test_changed_point_moves_to_back_of_order(self, circuit):
        warm = IncrementalDiagnosisEngine(Flames(circuit))
        healthy = measurements_for(circuit)
        warm.diagnose(healthy)
        assert warm.order == [m.point for m in healthy]
        warm.diagnose(replace(healthy, "V(n1)", 9.9))
        assert warm.order[-1] == "V(n1)"
        assert warm.order[:-1] == [m.point for m in healthy if m.point != "V(n1)"]

    def test_removed_point_truncates_chain(self, circuit):
        warm = IncrementalDiagnosisEngine(Flames(circuit))
        healthy = measurements_for(circuit)
        warm.diagnose(healthy)
        assert warm.last_stats.recomputed == len(NETS)
        position = warm.order.index("V(n2)")
        subset = [m for m in healthy if m.point != "V(n2)"]
        result = warm.diagnose(subset)
        # The chain is cut back to the step before the removed point.
        assert warm.last_stats.reused_prefix == position
        assert warm.last_stats.total == len(subset)
        assert "V(n2)" not in warm.order
        assert_same_result(result, cold_replay(circuit, warm.order, subset))

    def test_duplicate_points_rejected(self, circuit):
        warm = IncrementalDiagnosisEngine(Flames(circuit))
        healthy = measurements_for(circuit)
        with pytest.raises(ValueError, match="duplicate"):
            warm.diagnose(healthy + [healthy[0]])

    def test_unknown_point_rejected(self, circuit):
        warm = IncrementalDiagnosisEngine(Flames(circuit))
        bogus = Measurement("V(zz)", FuzzyInterval.number(1.0, 0.1))
        with pytest.raises(KeyError):
            warm.diagnose([bogus])

    def test_interrupted_step_is_not_checkpointed(self, circuit):
        warm = IncrementalDiagnosisEngine(Flames(circuit))
        healthy = measurements_for(circuit)
        warm.diagnose(healthy)

        changed = replace(healthy, "V(n3)", 0.1)
        # A one-step budget dies inside the changed point's re-assertion.
        ctx = RunContext(step_budget=1)
        result = warm.diagnose(changed, ctx=ctx)
        assert result.interrupted
        reused = warm.last_stats.reused_prefix

        # The next unbounded tick recovers and matches a cold replay.
        recovered = warm.diagnose(changed)
        assert not recovered.interrupted
        # The interrupted suffix step was not checkpointed: the recovery
        # tick restores no more of the chain than the interrupted one did.
        assert warm.last_stats.reused_prefix == reused
        assert_same_result(
            recovered, cold_replay(circuit, warm.order, changed)
        )

    def test_interrupted_base_build_reports_empty_partial(self, circuit):
        warm = IncrementalDiagnosisEngine(Flames(circuit))
        result = warm.diagnose(measurements_for(circuit), ctx=RunContext(step_budget=1))
        assert result.interrupted
        assert warm.last_stats is None
        # And it can still recover on the next unbounded call.
        ok = warm.diagnose(measurements_for(circuit))
        assert not ok.interrupted
        assert warm.last_stats.reused_prefix == 0
        assert ok.is_consistent
