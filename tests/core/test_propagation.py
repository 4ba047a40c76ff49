"""Tests for the fuzzy propagation engine."""

import pytest

from repro.circuit import (
    Circuit,
    ConstraintNetwork,
    GROUND,
    Resistor,
    VoltageSource,
    amplifier_cascade,
    diode_resistor_circuit,
)
from repro.circuit.faults import Fault, FaultKind, apply_fault
from repro.circuit.measurements import probe_all
from repro.circuit.simulate import DCSolver
from repro.core.diagnosis import Flames
from repro.core import propagation
from repro.core.propagation import FuzzyPropagator, _rank
from repro.fuzzy import FuzzyInterval
from tests.helpers import is_close


def divider_network(tolerance=0.05):
    ckt = Circuit("div")
    ckt.add(VoltageSource("Vin", 10.0, p="top", n=GROUND))
    ckt.add(Resistor("Rt", 1e3, tolerance, a="top", b="mid"))
    ckt.add(Resistor("Rb", 1e3, tolerance, a="mid", b=GROUND))
    return ConstraintNetwork(ckt)


class TestSeeding:
    def test_ground_is_premise(self):
        p = FuzzyPropagator(divider_network())
        (entry,) = p.values("V(0)")
        assert entry.source == "premise"
        assert entry.interval == FuzzyInterval.crisp(0.0)

    def test_other_variables_start_at_seed(self):
        p = FuzzyPropagator(divider_network())
        (entry,) = p.values("V(mid)")
        assert entry.is_seed
        assert entry.interval.support == (-60.0, 60.0)

    def test_reset_restores_seeds(self):
        p = FuzzyPropagator(divider_network())
        p.set_value("V(mid)", FuzzyInterval.crisp(5.0))
        p.run()
        p.reset()
        assert len(p.values("V(mid)")) == 1

    def test_unknown_variable_rejected(self):
        p = FuzzyPropagator(divider_network())
        with pytest.raises(KeyError):
            p.set_value("V(nowhere)", FuzzyInterval.crisp(0.0))


class TestForwardPropagation:
    def test_source_pins_top_node(self):
        p = FuzzyPropagator(divider_network())
        p.run()
        best = p.best("V(top)")
        assert best.interval.core == (10.0, 10.0)
        assert best.environment == frozenset({"Vin"})

    def test_measured_value_drives_derivations(self):
        p = FuzzyPropagator(divider_network())
        p.set_value("V(mid)", FuzzyInterval.crisp(5.0))
        p.run()
        current = p.best("I(Rb)")
        assert current.interval.centroid == pytest.approx(5e-3, rel=0.1)
        assert "Rb" in current.environment

    def test_quiescence(self):
        p = FuzzyPropagator(divider_network())
        result = p.run()
        assert result.quiescent
        # Re-running without new information is an immediate no-op pass.
        again = p.run()
        assert again.quiescent

    def test_derived_values_sound_for_healthy_circuit(self):
        """Every derived entry must contain the true operating point."""
        from repro.circuit import DCSolver
        from repro.core.predict import variable_values

        network = divider_network()
        truth = variable_values(
            network.circuit, DCSolver(network.circuit).solve()
        )
        p = FuzzyPropagator(network)
        p.run()
        for name, true_value in truth.items():
            for entry in p.values(name):
                lo, hi = entry.interval.support
                assert lo - 1e-6 <= true_value <= hi + 1e-6, (name, entry)

    def test_cascade_propagates_through_gains(self):
        network = ConstraintNetwork(amplifier_cascade())
        p = FuzzyPropagator(network)
        p.run()
        d = p.best("V(d)")
        assert d.interval.centroid == pytest.approx(9.0, rel=0.05)


class TestConflictDetection:
    def test_conflicting_measurement_reported(self):
        p = FuzzyPropagator(divider_network())
        p.set_value("V(mid)", FuzzyInterval.number(8.0, 0.01))
        p.run()
        conflicts = p.conflicts
        assert conflicts
        strongest = max(conflicts, key=lambda c: c.degree)
        assert strongest.degree > 0.5
        assert strongest.environment  # blames components, not the data

    def test_consistent_measurement_quiet(self):
        p = FuzzyPropagator(divider_network())
        p.set_value("V(mid)", FuzzyInterval.number(5.0, 0.05))
        p.run()
        assert all(c.degree < 0.2 for c in p.conflicts)

    def test_conflicts_deduplicated(self):
        p = FuzzyPropagator(divider_network())
        p.set_value("V(mid)", FuzzyInterval.number(8.0, 0.01))
        p.run()
        keys = {
            (c.variable, c.environment, round(c.degree, 2), c.direction)
            for c in p.conflicts
        }
        assert len(keys) == len(p.conflicts)

    def test_figure5_conflict_degrees(self):
        network = ConstraintNetwork(
            diode_resistor_circuit(), nominal_modes={"d1": "on"}
        )
        p = FuzzyPropagator(network)
        p.set_value("V(vin)", FuzzyInterval.crisp(3.25))
        p.set_value("V(n1)", FuzzyInterval.crisp(2.2))
        p.set_value("V(n2)", FuzzyInterval.crisp(2.0))
        p.run()
        by_env = {}
        for c in p.conflicts:
            key = frozenset(c.environment)
            by_env[key] = max(by_env.get(key, 0.0), c.degree)
        assert by_env.get(frozenset({"r1", "d1"})) == pytest.approx(0.5)
        assert by_env.get(frozenset({"r2", "d1"})) == pytest.approx(1.0)


class TestTermination:
    def test_step_cap_respected(self, monkeypatch):
        monkeypatch.setattr(propagation, "MAX_STEPS", 5)
        p = FuzzyPropagator(divider_network())
        result = p.run()
        assert result.steps <= 5

    def test_immutable_entries_never_merge(self):
        p = FuzzyPropagator(divider_network())
        p.set_value("V(mid)", FuzzyInterval.number(5.0, 0.02))
        p.run()
        measured = [v for v in p.values("V(mid)") if v.source == "measurement"]
        assert len(measured) == 1
        assert is_close(measured[0].interval, FuzzyInterval.number(5.0, 0.02))

    def test_identical_projection_skipped(self):
        p = FuzzyPropagator(divider_network())
        first = p.run().steps
        # Nothing changed: the queue drains with one visit per constraint.
        second = p.run().steps
        assert second <= len(p.network.constraints)
        assert first >= second

    def test_value_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(propagation, "MAX_VALUES_PER_VARIABLE", 3)
        p = FuzzyPropagator(divider_network())
        p.set_value("V(mid)", FuzzyInterval.number(5.0, 0.02))
        p.run()
        for name in p.network.variables:
            mutable = [
                v
                for v in p.values(name)
                if v.source not in ("measurement", "premise", "prediction")
            ]
            assert len(mutable) <= 3


class TestSeedTaintProvenance:
    """Seed-descended widths are ignorance, not evidence (see values.py)."""

    def test_seed_flag_set_on_seeds(self):
        p = FuzzyPropagator(divider_network())
        (entry,) = p.values("V(mid)")
        assert entry.from_seed

    def test_projections_from_seeds_are_tainted(self):
        p = FuzzyPropagator(divider_network())
        p.run()
        # Some derived entries descend from seeds (e.g. currents computed
        # from the seeded mid-node voltage before measurements arrive).
        tainted = [
            v
            for name in p.network.variables
            for v in p.values(name)
            if v.from_seed and not v.is_seed
        ]
        assert tainted

    def test_measurement_chains_are_untainted(self):
        p = FuzzyPropagator(divider_network())
        p.set_value("V(mid)", FuzzyInterval.crisp(5.0))
        p.run()
        currents = [v for v in p.values("I(Rb)") if not v.is_seed]
        assert any(not v.from_seed for v in currents)

    def test_tainted_values_never_conflict(self):
        p = FuzzyPropagator(divider_network())
        p.set_value("V(mid)", FuzzyInterval.number(8.0, 0.01))
        p.run()
        for conflict in p.conflicts:
            assert not conflict.newer.from_seed
            assert not conflict.older.from_seed

    def test_intersection_with_untainted_clears_taint(self):
        from repro.core.values import FuzzyValue

        p = FuzzyPropagator(divider_network())
        env = frozenset({"Rb"})
        tainted = FuzzyValue(FuzzyInterval(3.0, 7.0), env, "Rb", from_seed=True)
        clean = FuzzyValue(FuzzyInterval(4.0, 6.0), env, "Rb")
        assert p._record("V(mid)", tainted)
        assert p._record("V(mid)", clean)
        # The narrower untainted value merged into the tainted entry:
        # intersection with it bounds the entry by model implication.
        (merged,) = [v for v in p.values("V(mid)") if v.environment == env]
        assert merged.interval == FuzzyInterval(4.0, 6.0)
        assert merged.from_seed is False
        assert p.counts()["merged"] == 1


def _amp_case():
    from repro.circuit import three_stage_amplifier

    return three_stage_amplifier(), Fault(FaultKind.SHORT, "R2"), ("vs", "v1")


def _ladder_case():
    from repro.circuit.generators import resistor_ladder

    return resistor_ladder(8), Fault(FaultKind.OPEN, "Rs3"), ("n4", "n7")


class TestRankedMemo:
    """``best`` and ``_select`` read a per-tick memo of the ranked store.

    Whatever mutates the stores — assertions, runs, checkpoint/restore
    (whose tick stamps repeat) and reset — the memo must answer exactly
    what a fresh ``min``/``sorted`` over the current store would.
    """

    @staticmethod
    def _assert_fresh(p):
        n = propagation.VALUES_PER_INPUT
        for name in p.network.variables:
            stored = p.values(name)
            assert p.best(name) is min(stored, key=_rank), name
            expected = sorted(stored, key=_rank)[:n]
            selected = p._select(name)
            assert len(selected) == len(expected), name
            assert all(a is b for a, b in zip(selected, expected)), name

    @pytest.mark.parametrize("case", [_amp_case, _ladder_case])
    def test_memo_tracks_every_mutation(self, case):
        golden, fault, probes = case()
        engine = Flames(golden)
        op = DCSolver(apply_fault(golden, fault)).solve()
        first, second = probe_all(op, probes, imprecision=0.02)
        p = engine.make_propagator()
        self._assert_fresh(p)
        for name, prediction in engine.predictions().items():
            p.set_value(name, prediction, source="prediction")
        self._assert_fresh(p)
        seeded = p.checkpoint()
        p.set_value(first.point, first.value)
        self._assert_fresh(p)
        p.run()
        self._assert_fresh(p)
        after_first = p.checkpoint()
        p.set_value(second.point, second.value)
        p.run()
        self._assert_fresh(p)
        # Back to an earlier tick, then forward through the same tick
        # numbers with different content.
        p.restore(seeded)
        self._assert_fresh(p)
        p.set_value(second.point, second.value)
        p.run()
        self._assert_fresh(p)
        p.restore(after_first)
        self._assert_fresh(p)
        p.reset()
        self._assert_fresh(p)
        p.set_value(first.point, first.value)
        p.run()
        self._assert_fresh(p)
