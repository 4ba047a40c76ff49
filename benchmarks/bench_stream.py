"""Streaming re-diagnosis latency: incremental tick vs cold re-run.

The streaming plane's reason to exist is the warm tick: after one net
drifts, the prefix-checkpoint chain re-asserts a single measurement
instead of replaying the whole snapshot.  This benchmark times the
steady-state warm tick (the same net keeps drifting, which is what a
degrading unit looks like) against both cold baselines:

* **chain-cold** — a fresh ``IncrementalDiagnosisEngine`` absorbing the
  same sequence in the same order (the semantically identical baseline;
  the differential suite pins the equality);
* **one-shot** — ``Flames.diagnose`` of the final measurement set (the
  batch path a non-streaming caller would use).

The pytest case is CI smoke (small ladder, sanity ratios).  Committed
end-to-end numbers for the warm tick come from ``python -m flamesbench``
(the ``stream-drift`` workload).
"""

import time

from repro.circuit.generators import resistor_ladder
from repro.circuit.measurements import Measurement, probe_all
from repro.circuit.simulate import DCSolver
from repro.core.diagnosis import Flames
from repro.fuzzy import FuzzyInterval
from repro.stream.incremental import IncrementalDiagnosisEngine

IMPRECISION = 0.05
#: The drifting net sags to 90% of nominal — inconsistent enough that a
#: real diagnosis happens every tick, mild enough that conflict-set
#: extraction does not drown out the propagation cost being compared.
DRIFT_FACTOR = 0.9


def _measurements(circuit, nets):
    return probe_all(DCSolver(circuit).solve(), nets, imprecision=IMPRECISION)


def _with_value(measurements, point, volts):
    return [
        Measurement(m.point, FuzzyInterval.number(volts, IMPRECISION))
        if m.point == point
        else m
        for m in measurements
    ]


def _median(samples):
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


def run_tick_comparison(sections, reps=5):
    """Median warm / chain-cold / one-shot milliseconds for one drift."""
    circuit = resistor_ladder(sections)
    nets = [f"n{i}" for i in range(1, sections + 1)]
    healthy = _measurements(circuit, nets)
    drift_point = f"V(n{sections // 2})"
    nominal = dict((m.point, m) for m in healthy)[drift_point].value.centroid
    drift_volts = nominal * DRIFT_FACTOR

    warm = IncrementalDiagnosisEngine(Flames(circuit))
    warm.diagnose(healthy)
    # First drift pays the reorder; steady state starts on the second.
    warm.diagnose(_with_value(healthy, drift_point, drift_volts))

    warm_ms, chain_ms, oneshot_ms = [], [], []
    for rep in range(reps):
        # Keep the value moving so every tick really re-asserts it.
        snapshot = _with_value(
            healthy, drift_point, drift_volts * (1 + 0.005 * (rep + 1))
        )
        started = time.perf_counter()
        warm_result = warm.diagnose(snapshot)
        warm_ms.append((time.perf_counter() - started) * 1e3)
        assert warm.last_stats.incremental
        assert warm.last_stats.recomputed == 1

        order = warm.order
        by_point = {m.point: m for m in snapshot}
        started = time.perf_counter()
        cold = IncrementalDiagnosisEngine(Flames(circuit))
        cold_result = cold.diagnose([by_point[p] for p in order])
        chain_ms.append((time.perf_counter() - started) * 1e3)
        assert not warm_result.is_consistent, "the drift must actually diagnose"
        assert warm_result.ranked_components() == cold_result.ranked_components()

        started = time.perf_counter()
        Flames(circuit).diagnose(snapshot)
        oneshot_ms.append((time.perf_counter() - started) * 1e3)

    return _median(warm_ms), _median(chain_ms), _median(oneshot_ms)


def format_table(sections, warm, chain, oneshot):
    return "\n".join([
        "streaming tick latency: incremental vs cold (median ms, one drifting net)",
        f"  {'sections':>8} {'warm':>8} {'chain-cold':>11} "
        f"{'one-shot':>9} {'vs chain':>9} {'vs shot':>8}",
        f"  {sections:>8} {warm:>8.1f} {chain:>11.1f} "
        f"{oneshot:>9.1f} {chain / warm:>8.1f}x {oneshot / warm:>7.1f}x",
    ])


class TestStreamTick:
    def test_warm_tick_beats_cold_baselines(self, emit):
        warm, chain, oneshot = run_tick_comparison(8, reps=3)
        emit("stream-tick", format_table(8, warm, chain, oneshot))
        # CI smoke keeps a loose floor on a small ladder.
        assert chain > warm, "warm tick slower than chain-cold"
        assert oneshot > warm, "warm tick slower than one-shot"
