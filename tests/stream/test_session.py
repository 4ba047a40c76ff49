"""End-to-end streaming sessions over in-process sources."""

from repro.circuit.faults import Fault, FaultKind
from repro.circuit.generators import resistor_ladder
from repro.circuit.transient import TransientSolver
from repro.core.diagnosis import Flames
from repro.resilience import FaultPlan, faults
from repro.service.telemetry import Telemetry
from repro.stream import (
    DetectorConfig,
    DriftDetector,
    LiveSimulatorSource,
    Reading,
    SnapshotBuilder,
    StreamingSession,
)

SECTIONS = 3
NETS = [f"n{i}" for i in range(1, SECTIONS + 1)]


def make_session(source, telemetry=None, **kwargs):
    circuit = resistor_ladder(SECTIONS)
    kwargs.setdefault("builder", SnapshotBuilder(imprecision=0.05, epsilon=1e-3))
    return StreamingSession(
        engine=Flames(circuit),
        source=source,
        telemetry=telemetry or Telemetry(),
        **kwargs,
    )


def healthy_source(duration=0.004, **kwargs):
    circuit = resistor_ladder(SECTIONS)
    return LiveSimulatorSource(circuit, NETS, duration=duration, dt=1e-3, **kwargs)


# Fault localization needs enough probes to pin the culprit: at 6
# sections the short on Rp3 is the unique best minimal candidate.
FAULT_SECTIONS = 6


def faulty_session(telemetry=None):
    circuit = resistor_ladder(FAULT_SECTIONS)
    nets = [f"n{i}" for i in range(1, FAULT_SECTIONS + 1)]
    source = LiveSimulatorSource(
        circuit,
        nets,
        duration=0.006,
        dt=1e-3,
        fault=Fault(FaultKind.SHORT, "Rp3"),
        fault_at=0.003,
    )
    return StreamingSession(
        engine=Flames(circuit),
        source=source,
        builder=SnapshotBuilder(imprecision=0.05, epsilon=1e-3),
        telemetry=telemetry or Telemetry(),
    )


class TestHealthyStream:
    def test_baseline_update_only(self):
        telemetry = Telemetry()
        updates = list(make_session(healthy_source(), telemetry).run())
        # One baseline tick, consistent; nothing ever drifts after it.
        assert len(updates) == 1
        assert updates[0].seq == 0
        assert updates[0].consistent
        assert not updates[0].drifted
        assert set(updates[0].dirty) == {f"V({n})" for n in NETS}
        assert telemetry.counter("stream_rediagnoses") == 1
        assert telemetry.counter("stream_readings_ingested") == len(NETS) * 5


class TestFaultyStream:
    def test_fault_triggers_rediagnosis_and_ranks_culprit(self):
        telemetry = Telemetry()
        updates = list(faulty_session(telemetry).run())
        assert len(updates) >= 2
        baseline, final = updates[0], updates[-1]
        assert baseline.consistent
        assert not final.consistent
        assert final.drifted  # the detector saw the drift
        # The injected short on Rp3 is the best minimal candidate.
        assert final.candidates[0] == ("Rp3",)
        # Sequence numbers are gapless per session.
        assert [u.seq for u in updates] == list(range(len(updates)))
        assert telemetry.snapshot()["gauges"]["stream_detector_fired"] >= 1

    def test_warm_ticks_after_baseline_are_incremental(self):
        updates = list(faulty_session().run())
        assert updates[0].incremental is False  # baseline builds the chain
        # The fault flips every ladder net beyond epsilon at once, so the
        # first faulty tick recomputes most of the chain; the nets keep
        # their (now faulty) values afterwards, so any later tick reuses.
        assert all(u.tick_ms >= 0 for u in updates)


class TestReplayAndChaos:
    def test_replay_source_drives_a_session(self):
        circuit = resistor_ladder(SECTIONS)
        trace = TransientSolver(circuit, None, dt=1e-3).run(0.004)
        # A recorded trace is a plain list of readings: any iterable will do.
        readings = [
            Reading(t, net, op.voltage(net))
            for t, op in zip(trace.times, trace.points)
            for net in NETS
        ]
        updates = list(make_session(readings).run())
        assert len(updates) == 1 and updates[0].consistent

    def test_reading_drop_thins_the_stream(self):
        faults.install_plan(FaultPlan.build(seed=3, **{"stream.reading_drop": 0.4}))
        telemetry = Telemetry()
        updates = list(make_session(healthy_source(duration=0.01), telemetry).run())
        dropped = telemetry.counter("stream_readings_dropped")
        ingested = telemetry.counter("stream_readings_ingested")
        assert dropped > 0
        assert ingested > 0  # fractional rate thins, never starves
        assert dropped + ingested == len(NETS) * 11
        # A lossy healthy stream still converges to a consistent ranking.
        assert updates and updates[-1].consistent

    def test_drop_everything_yields_no_updates(self):
        faults.install_plan(FaultPlan.build(seed=0, **{"stream.reading_drop": 1.0}))
        telemetry = Telemetry()
        updates = list(make_session(healthy_source(), telemetry).run())
        assert updates == []
        assert telemetry.counter("stream_readings_ingested") == 0

    def test_detector_misfire_wastes_but_does_not_lie(self):
        faults.install_plan(
            FaultPlan(
                seed=0,
                rules=(
                    faults.FaultRule("stream.detector_misfire", rate=1.0, limit=1),
                ),
            )
        )
        telemetry = Telemetry()
        detector = DriftDetector(DetectorConfig())
        updates = list(
            make_session(healthy_source(), telemetry, detector=detector).run()
        )
        # The spurious trigger costs at most one extra tick; every
        # emitted ranking is still consistent (the unit is healthy).
        assert all(u.consistent for u in updates)
        assert telemetry.snapshot()["gauges"]["stream_detector_misfires"] == 1


class TestDeadline:
    def test_tick_deadline_marks_updates_interrupted(self):
        # An absurdly small budget: the baseline tick cannot finish.
        session = make_session(healthy_source(), tick_deadline=1e-9)
        updates = list(session.run())
        assert updates, "an interrupted tick still yields a partial update"
        assert any(u.interrupted for u in updates)
