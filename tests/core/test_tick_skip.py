"""Differential harness: the change-tick skip must be a pure no-op.

``FuzzyPropagator._apply`` skips any constraint none of whose watched
variables changed since its last firing.  The skip is always on, so it
is pinned here against a test-local propagator that forgets each
constraint's firing stamp before every firing, which turns the skip
off.  Every scenario (library circuit x fault mode) runs both ways and
the *entire* diagnosis — ranked candidates, suspicion degrees, weighted
nogoods, consistencies, propagation step counts — must agree to 1e-9.
A second battery drives a persistent propagator with measurements added
one at a time, the workload the skip exists for, and checks the
incremental fixpoint after every single run; a third cuts both runs
mid-propagation.  The last test checks the skip earns its place: it
must save projections on the repeated-probe ladder stream.
"""

import math

import pytest

from repro.circuit.constraints import ConstraintNetwork
from repro.circuit.faults import Fault, FaultKind, apply_fault
from repro.circuit.generators import resistor_ladder
from repro.circuit.library import (
    amplifier_cascade,
    diode_resistor_circuit,
    three_stage_amplifier,
)
from repro.circuit.measurements import probe, probe_all
from repro.circuit.simulate import DCSolver
from repro.core.diagnosis import Flames
from repro.core.predict import predict_nominal
from repro.core.propagation import FuzzyPropagator
from repro.runtime import RunContext

TOL = 1e-9


class NoSkipPropagator(FuzzyPropagator):
    """The propagator with the change-tick skip turned off."""

    def _apply(self, constraint):
        self._fired_at.pop(id(constraint), None)
        return super()._apply(constraint)


class NoSkipFlames(Flames):
    """An engine whose pipeline runs on :class:`NoSkipPropagator`."""

    def make_propagator(self):
        return NoSkipPropagator(self.network)


ENGINES = {"skip": Flames, "noskip": NoSkipFlames}

SCENARIOS = [
    ("cascade-healthy", amplifier_cascade, None, ["a", "b", "c", "d"]),
    (
        "cascade-gain-drift",
        amplifier_cascade,
        Fault(FaultKind.PARAM, "amp2", "gain", 0.2),
        ["a", "b", "c", "d"],
    ),
    (
        "diode-short-r1",
        diode_resistor_circuit,
        Fault(FaultKind.SHORT, "r1"),
        ["vin", "n1", "n2"],
    ),
    (
        "diode-open-d1",
        diode_resistor_circuit,
        Fault(FaultKind.OPEN, "d1"),
        ["vin", "n1", "n2"],
    ),
    (
        "amp-short-r2",
        three_stage_amplifier,
        Fault(FaultKind.SHORT, "R2"),
        ["vs", "v1", "v2", "n1", "n2"],
    ),
    (
        "amp-open-r5",
        three_stage_amplifier,
        Fault(FaultKind.OPEN, "R5"),
        ["vs", "v1", "v2", "n1", "n2"],
    ),
]


def _diagnose(maker, fault, nets, engine):
    golden = maker()
    faulty = apply_fault(golden, fault) if fault else golden
    op = DCSolver(faulty).solve()
    measurements = probe_all(op, nets, imprecision=0.02)
    return ENGINES[engine](golden).diagnose(measurements)


def _nogood_key(ng):
    return (tuple(sorted(a.datum for a in ng.environment)), ng.degree)


@pytest.mark.parametrize(
    "maker,fault,nets", [s[1:] for s in SCENARIOS], ids=[s[0] for s in SCENARIOS]
)
class TestDiagnosisDifferential:
    def test_identical_diagnosis(self, maker, fault, nets):
        ref = _diagnose(maker, fault, nets, "noskip")
        skip = _diagnose(maker, fault, nets, "skip")

        assert ref.is_consistent == skip.is_consistent

        ranked_ref = ref.ranked_components()
        ranked_skip = skip.ranked_components()
        assert [c for c, _ in ranked_ref] == [c for c, _ in ranked_skip]
        for (_, dr), (_, ds) in zip(ranked_ref, ranked_skip):
            assert math.isclose(dr, ds, rel_tol=0, abs_tol=TOL)

        ng_ref = sorted(map(_nogood_key, ref.nogoods))
        ng_skip = sorted(map(_nogood_key, skip.nogoods))
        assert [k[0] for k in ng_ref] == [k[0] for k in ng_skip]
        for (_, dr), (_, ds) in zip(ng_ref, ng_skip):
            assert math.isclose(dr, ds, rel_tol=0, abs_tol=TOL)

        diag_ref = [(tuple(sorted(d.components)), d.degree) for d in ref.diagnoses]
        diag_skip = [(tuple(sorted(d.components)), d.degree) for d in skip.diagnoses]
        assert [k for k, _ in diag_ref] == [k for k, _ in diag_skip]
        for (_, dr), (_, ds) in zip(diag_ref, diag_skip):
            assert math.isclose(dr, ds, rel_tol=0, abs_tol=TOL)

        assert set(ref.consistencies) == set(skip.consistencies)
        for point in ref.consistencies:
            assert math.isclose(
                ref.consistencies[point].signed,
                skip.consistencies[point].signed,
                rel_tol=0,
                abs_tol=TOL,
            )

    def test_identical_propagation_trace(self, maker, fault, nets):
        """The skip drops provable no-ops but never reorders work, so even
        the step count and conflict log must match exactly."""
        ref = _diagnose(maker, fault, nets, "noskip")
        skip = _diagnose(maker, fault, nets, "skip")
        assert ref.propagation.steps == skip.propagation.steps
        assert ref.propagation.quiescent == skip.propagation.quiescent
        assert len(ref.conflicts) == len(skip.conflicts)
        for cr, cs in zip(ref.conflicts, skip.conflicts):
            assert cr.variable == cs.variable
            assert cr.environment == cs.environment
            assert cr.direction == cs.direction
            assert math.isclose(cr.degree, cs.degree, rel_tol=0, abs_tol=TOL)


def _stream_propagator(circuit, propagator_cls, network=None):
    """A persistent propagator holding the nominal predictions."""
    network = network if network is not None else ConstraintNetwork(circuit, False)
    prop = propagator_cls(network)
    for name, pred in predict_nominal(circuit).items():
        if name in network.variables:
            prop.set_value(name, pred.value, pred.support, source="prediction")
    return prop


def _incremental_states(circuit, faulty, nets, propagator_cls):
    """Drive one persistent propagator, snapshotting after every run."""
    op = DCSolver(faulty).solve()
    prop = _stream_propagator(circuit, propagator_cls)
    snapshots = []

    def snap():
        conflicts = sorted(
            (c.variable, c.environment, round(c.degree, 9), c.direction)
            for c in prop.conflicts
        )
        estimates = {
            n: (best.interval.as_tuple() if best is not None else None)
            for n, best in ((n, prop.best(n)) for n in prop.network.variables)
        }
        snapshots.append((conflicts, estimates))

    prop.run()
    snap()
    for net in nets:
        m = probe(op, net, 0.02)
        prop.set_value(m.point, m.value)
        prop.run()
        snap()
    return snapshots


def _assert_same_partial(ref, skip):
    """The two (possibly partial) results must agree exactly."""
    assert ref.propagation.steps == skip.propagation.steps
    assert ref.propagation.quiescent == skip.propagation.quiescent
    assert ref.propagation.interrupted == skip.propagation.interrupted
    ranked_ref = ref.ranked_components()
    ranked_skip = skip.ranked_components()
    assert [c for c, _ in ranked_ref] == [c for c, _ in ranked_skip]
    for (_, dr), (_, ds) in zip(ranked_ref, ranked_skip):
        assert math.isclose(dr, ds, rel_tol=0, abs_tol=TOL)
    assert sorted(map(_nogood_key, ref.nogoods)) == sorted(map(_nogood_key, skip.nogoods))
    diag_ref = [(tuple(sorted(d.components)), d.degree) for d in ref.diagnoses]
    diag_skip = [(tuple(sorted(d.components)), d.degree) for d in skip.diagnoses]
    assert diag_ref == diag_skip
    assert len(ref.conflicts) == len(skip.conflicts)
    for cr, cs in zip(ref.conflicts, skip.conflicts):
        assert cr.variable == cs.variable
        assert cr.environment == cs.environment


class TestInterruptionDifferential:
    """Expiring mid-propagation must leave *identical partial semantics*
    with the skip on and off.

    Budgets are charged once per work-list pop, skipped firings
    included, and both runs process the identical work list (pinned by
    the step-count assertions above), so a step budget — or a
    deterministic fake clock advanced per check — cuts both runs at
    exactly the same pop.  The partial result must still be well-formed:
    ranked, classified, serialisable, flagged.
    """

    def _ladder_scenario(self):
        fault = Fault(FaultKind.OPEN, "Rp3")
        faulty = apply_fault(resistor_ladder(16), fault)
        op = DCSolver(faulty).solve()
        nets = [n for n in sorted(op.voltages) if n != "0"][:8]
        return probe_all(op, nets, imprecision=0.02)

    def _run(self, measurements, engine, ctx):
        return ENGINES[engine](resistor_ladder(16)).diagnose(measurements, ctx=ctx)

    def test_step_budget_interrupts_identically(self):
        measurements = self._ladder_scenario()
        full = self._run(measurements, "skip", None)
        assert full.propagation.quiescent and not full.interrupted
        budget = full.propagation.steps // 2
        assert budget > 0, "scenario too small to interrupt mid-propagation"

        results = {}
        for engine in ENGINES:
            ctx = RunContext(step_budget=budget)
            result = self._run(measurements, engine, ctx)
            assert result.interrupted
            assert ctx.stop_reason == "step-budget"
            assert result.propagation.interrupted
            assert not result.propagation.quiescent
            results[engine] = result
        # The budget is charged *before* each pop, so exactly budget-1
        # pops execute — deterministically, skip on or off.
        assert results["skip"].propagation.steps == budget - 1
        _assert_same_partial(results["noskip"], results["skip"])
        # Partial really is partial: fewer steps than the full run.
        assert results["skip"].propagation.steps < full.propagation.steps

    def test_fake_clock_deadline_interrupts_identically(self):
        measurements = self._ladder_scenario()

        def make_clock():
            now = [0.0]

            def clock():
                now[0] += 0.001  # every check advances one millisecond
                return now[0]

            return clock

        results = {}
        for engine in ENGINES:
            clock = make_clock()
            ctx = RunContext(deadline=clock() + 0.05, clock=clock)
            result = self._run(measurements, engine, ctx)
            assert result.interrupted
            assert ctx.stop_reason == "deadline"
            results[engine] = result
        _assert_same_partial(results["noskip"], results["skip"])


class TestIncrementalDifferential:
    """One measurement at a time against a persistent propagator —
    the skipping path must track the non-skipping one at every step."""

    @pytest.mark.parametrize(
        "maker,fault",
        [
            (three_stage_amplifier, Fault(FaultKind.SHORT, "R2")),
            (lambda: resistor_ladder(12), Fault(FaultKind.OPEN, "Rp3")),
        ],
        ids=["amp-short-r2", "ladder12-open-r3"],
    )
    def test_stepwise_equivalence(self, maker, fault):
        golden = maker()
        faulty = apply_fault(golden, fault)
        op = DCSolver(faulty).solve()
        nets = [n for n in sorted(op.voltages) if n != "0"][:6]
        ref = _incremental_states(golden, faulty, nets, NoSkipPropagator)
        skip = _incremental_states(golden, faulty, nets, FuzzyPropagator)
        assert len(ref) == len(skip)
        for i, (r, s) in enumerate(zip(ref, skip)):
            assert r[0] == s[0], f"conflict log diverged after run {i}"
            assert r[1] == s[1], f"estimates diverged after run {i}"


def _projection_count(propagator_cls, circuit, probes):
    """``Constraint.project`` calls over a probe-at-a-time stream."""
    op = DCSolver(circuit).solve()
    nets = [n for n in sorted(op.voltages) if n != "0"][:probes]
    network = ConstraintNetwork(circuit, False)
    calls = [0]
    for constraint in network.constraints:
        project = constraint.project

        def counted(target, values, _project=project):
            calls[0] += 1
            return _project(target, values)

        constraint.project = counted
    prop = _stream_propagator(circuit, propagator_cls, network)
    prop.run()
    for net in nets:
        m = probe(op, net, 0.02)
        prop.set_value(m.point, m.value)
        prop.run()
    return calls[0]


def test_skip_saves_projections_on_the_ladder_stream():
    """Ladder-40 fed 12 probes one at a time: the workload the skip was
    built for must do strictly fewer projections with it than without."""
    circuit = resistor_ladder(40)
    with_skip = _projection_count(FuzzyPropagator, circuit, 12)
    without = _projection_count(NoSkipPropagator, circuit, 12)
    assert with_skip < without, (with_skip, without)
