"""Reading sources: determinism, ordering, and the mid-stream fault swap."""

import pytest

from repro.circuit.faults import Fault, FaultKind
from repro.circuit.generators import resistor_ladder
from repro.circuit.library import rc_lowpass
from repro.circuit.transient import step_waveform
from repro.stream import LiveSimulatorSource, Reading

LADDER_NETS = ["n1", "n2", "n3"]


class TestReading:
    def test_point_name_matches_probe_convention(self):
        reading = Reading(t=0.0, net="n2", volts=3.3)
        assert reading.point == "V(n2)"

    def test_to_measurement_wraps_volts(self):
        m = Reading(t=0.0, net="n1", volts=5.0).to_measurement(imprecision=0.1)
        assert m.point == "V(n1)"
        assert m.value.membership(5.0) == pytest.approx(1.0)
        assert m.value.membership(5.2) == pytest.approx(0.0)


class TestLiveSimulatorSource:
    def test_healthy_run_is_steady(self):
        circuit = resistor_ladder(3)
        readings = list(
            LiveSimulatorSource(circuit, LADDER_NETS, duration=0.005, dt=1e-3)
        )
        assert readings, "healthy run must produce readings"
        by_net = {}
        for r in readings:
            by_net.setdefault(r.net, []).append(r.volts)
        # A purely resistive ladder holds its DC values sample to sample.
        for net, volts in by_net.items():
            assert max(volts) - min(volts) < 1e-9, net

    def test_fault_changes_the_suffix(self):
        circuit = resistor_ladder(3)
        fault = Fault(FaultKind.SHORT, "Rp2")
        fault_at = 0.003
        healthy = list(
            LiveSimulatorSource(circuit, LADDER_NETS, duration=0.006, dt=1e-3)
        )
        broken = list(
            LiveSimulatorSource(
                circuit,
                LADDER_NETS,
                duration=0.006,
                dt=1e-3,
                fault=fault,
                fault_at=fault_at,
            )
        )
        pre = [r for r in broken if r.t < fault_at]
        post = [r for r in broken if r.t > fault_at and r.net == "n2"]
        healthy_pre = [r for r in healthy if r.t < fault_at]
        assert pre == healthy_pre  # identical until the unit breaks
        assert post, "must keep streaming after the fault"
        healthy_n2 = healthy[1].volts  # n2 at the first frame
        assert all(abs(r.volts - healthy_n2) > 0.1 for r in post)

    def test_times_strictly_increase_across_the_boundary(self):
        circuit = resistor_ladder(2)
        source = LiveSimulatorSource(
            circuit,
            ["n1"],
            duration=0.006,
            dt=1e-3,
            fault=Fault(FaultKind.OPEN, "Rs2"),
            fault_at=0.003,
        )
        times = [r.t for r in source]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_capacitor_state_carries_across_the_swap(self):
        # An RC chain mid-charge: the faulty continuation must start from
        # the voltages the healthy run reached, not from the broken
        # circuit's own DC steady state — the unit's capacitors do not
        # teleport when a resistor fails.
        circuit = rc_lowpass(stages=2)
        waveforms = {"Vin": step_waveform(0.0, 5.0, at=0.0)}
        dt, fault_at = 1e-4, 2e-3
        source = LiveSimulatorSource(
            circuit,
            ["m1", "m2"],
            duration=6e-3,
            dt=dt,
            fault=Fault(FaultKind.SHORT, "R2"),
            fault_at=fault_at,
            waveforms=waveforms,
        )
        readings = [r for r in source if r.net == "m1"]
        last_pre = max((r for r in readings if r.t <= fault_at), key=lambda r: r.t)
        first_post = min((r for r in readings if r.t > fault_at), key=lambda r: r.t)
        # One backward-Euler step of an RC with tau >> dt moves a few
        # percent at most; a state reset mid-charge would jump volts.
        assert abs(first_post.volts - last_pre.volts) < 0.5

    def test_noise_determinism(self):
        circuit = resistor_ladder(2)
        kwargs = dict(duration=0.004, dt=1e-3, noise=0.02, seed=3)
        a = list(LiveSimulatorSource(circuit, ["n1", "n2"], **kwargs))
        b = list(LiveSimulatorSource(circuit, ["n1", "n2"], **kwargs))
        assert a == b

    def test_validation(self):
        circuit = resistor_ladder(2)
        with pytest.raises(ValueError):
            LiveSimulatorSource(circuit, ["n1"], duration=0.0)
        with pytest.raises(ValueError):
            LiveSimulatorSource(circuit, [], duration=0.01)
        with pytest.raises(ValueError):
            LiveSimulatorSource(
                circuit,
                ["n1"],
                duration=0.01,
                fault=Fault(FaultKind.SHORT, "Rp1"),
                fault_at=0.01,  # == duration: no broken samples to stream
            )
