"""Micro-benchmarks of the FLAMES engine pieces.

These time the substrates the paper's runtime claims rest on: fuzzy
interval arithmetic, Dc evaluation, ATMS label propagation, weighted
hitting sets, the DC simulator and one full diagnosis cycle, plus the
tracing-overhead guard.  Committed end-to-end numbers come from
``python -m flamesbench``; the change-tick skip is pinned by
``tests/core/test_tick_skip.py``.
"""

import time

from repro.atms import ATMS, Environment, minimal_diagnoses
from repro.atms.assumptions import Assumption
from repro.atms.nogood import WeightedNogood
from repro.circuit import (
    DCSolver,
    Fault,
    FaultKind,
    apply_fault,
    probe_all,
    three_stage_amplifier,
)
from repro.core import Flames
from repro.fuzzy import FuzzyInterval, consistency, fuzzy_entropy


class TestFuzzyArithmetic:
    def test_multiply_chain(self, benchmark):
        a = FuzzyInterval(3.0, 3.0, 0.05, 0.05)
        gains = [FuzzyInterval(g, g, 0.05, 0.05) for g in (1.0, 2.0, 3.0, 0.5)] * 5

        def chain():
            v = a
            for g in gains:
                v = v * g
            return v

        result = benchmark(chain)
        assert result.m1 > 0

    def test_consistency_degree(self, benchmark):
        measured = FuzzyInterval(1.05, 1.05, 0.02, 0.02)
        nominal = FuzzyInterval(1.0, 1.0, 0.08, 0.08)
        c = benchmark(consistency, measured, nominal)
        assert 0.0 <= c.degree <= 1.0

    def test_fuzzy_entropy_ten_components(self, benchmark):
        estimations = [FuzzyInterval(0.1 * i, 0.1 * i, 0.05, 0.05) for i in range(10)]
        ent = benchmark(fuzzy_entropy, estimations)
        assert ent.centroid >= 0.0


class TestATMSKernel:
    def _build(self, n):
        atms = ATMS()
        assumptions = [atms.create_assumption(f"A{i}") for i in range(n)]
        previous = None
        for i, a in enumerate(assumptions):
            node = atms.create_node(f"x{i}")
            ants = [a] if previous is None else [a, previous]
            atms.justify(f"j{i}", ants, node)
            previous = node
        return atms, assumptions

    def test_label_propagation_chain(self, benchmark):
        def run():
            atms, _ = self._build(30)
            return atms.stats()["label_environments"]

        assert benchmark(run) > 0

    def test_nogood_retraction(self, benchmark):
        def run():
            atms, assumptions = self._build(20)
            atms.declare_nogood("n", assumptions[:2])
            return len(atms.minimal_nogoods())

        assert benchmark(run) == 1

    def test_weighted_hitting_sets(self, benchmark):
        names = [Assumption(f"c{i}", f"c{i}") for i in range(10)]
        nogoods = [
            WeightedNogood(Environment(frozenset(names[i : i + 3])), 1.0 - 0.05 * i)
            for i in range(7)
        ]
        diagnoses = benchmark(minimal_diagnoses, nogoods)
        assert diagnoses


class TestSimulatorAndEngine:
    def test_dc_solve_three_stage(self, benchmark):
        golden = three_stage_amplifier()
        op = benchmark(lambda: DCSolver(golden).solve())
        assert op.device_states["T2"] == "active"

    def test_prediction_unit(self, benchmark):
        from repro.core.predict import predict_nominal

        golden = three_stage_amplifier()
        predictions = benchmark.pedantic(
            predict_nominal, args=(golden,), rounds=3, iterations=1
        )
        assert "V(vs)" in predictions

    def test_full_diagnosis_cycle(self, benchmark):
        golden = three_stage_amplifier()
        engine = Flames(golden)
        engine.predictions()  # warm the cache: time the diagnosis itself
        op = DCSolver(apply_fault(golden, Fault(FaultKind.SHORT, "R2"))).solve()
        measurements = probe_all(op, ["vs", "v2", "v1"], imprecision=0.02)
        result = benchmark.pedantic(
            engine.diagnose, args=(measurements,), rounds=3, iterations=1
        )
        assert not result.is_consistent


def _time(fn, *args, repeats=2):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


class TestTracingOverhead:
    """Span collection must cost (almost) nothing when off, little when on.

    Tracing off shares one no-op handle per ``RunContext.span`` call, so
    the traced-vs-untraced gap on a full diagnosis cycle is bounded at
    5% (plus a small absolute epsilon so sub-millisecond noise cannot
    trip the guard on a fast machine).
    """

    def test_span_overhead_within_5_percent(self, emit):
        from repro.runtime import RunContext

        golden = three_stage_amplifier()
        engine = Flames(golden)
        engine.predictions()
        op = DCSolver(apply_fault(golden, Fault(FaultKind.SHORT, "R2"))).solve()
        measurements = probe_all(op, ["vs", "v2", "v1"], imprecision=0.02)

        def run(tracing):
            ctx = RunContext(tracing=tracing)
            return engine.diagnose(measurements, ctx=ctx)

        run(True)  # warm everything once before timing
        base = _time(run, False, repeats=5)
        traced = _time(run, True, repeats=5)
        emit(
            "tracing-overhead",
            "span-collection overhead — full diagnosis cycle\n"
            f"{'tracing off':<14} {base * 1000:>8.2f}ms\n"
            f"{'tracing on':<14} {traced * 1000:>8.2f}ms\n"
            f"{'overhead':<14} {(traced / base - 1) * 100:>7.1f}%",
        )
        assert traced <= base * 1.05 + 0.002, (
            f"tracing overhead too high: {base * 1000:.2f}ms -> "
            f"{traced * 1000:.2f}ms ({(traced / base - 1) * 100:.1f}%)"
        )


class TestATMSGrowth:
    def test_growth_sweep(self, benchmark, emit):
        from repro.experiments.atms_growth import format_atms_growth, run_atms_growth

        rows = benchmark.pedantic(
            run_atms_growth, kwargs={"conflict_counts": (2, 4, 6, 8)},
            rounds=1, iterations=1,
        )
        assert rows[-1].diagnoses_all == 256
        emit("atms-growth", format_atms_growth(rows))
