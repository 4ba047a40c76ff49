"""Drift-detector unit tests: firing, hysteresis, re-arming, chaos misfires."""

import pytest

from repro.resilience import FaultPlan, FaultRule, faults
from repro.stream import DetectorConfig, DriftDetector


def feed(detector, net, dc, times):
    """Feed the same Dc sample repeatedly; return per-sample decisions."""
    return [detector.observe(net, dc) for _ in range(times)]


class TestConfig:
    def test_defaults_are_valid(self):
        DetectorConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"threshold": 0.0},
            {"threshold": 1.1},
            {"hysteresis": -0.1},
            {"hysteresis": 0.5, "threshold": 0.5},  # hysteresis == threshold
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            DetectorConfig(**kwargs)


class TestDrift:
    def test_healthy_stream_never_fires(self):
        detector = DriftDetector()
        assert not any(feed(detector, "n1", dc=1.0, times=50))
        assert detector.fired == 0
        assert detector.drifted_nets() == []

    def test_drift_fires_once_ewma_crosses(self):
        detector = DriftDetector(DetectorConfig(threshold=0.5, alpha=0.4))
        decisions = feed(detector, "n1", dc=0.0, times=5)
        # The first fully-inconsistent sample seeds the EWMA at 1.0 —
        # already over threshold, so the detector fires immediately.
        assert decisions[0] is True
        assert detector.fired == 1
        assert detector._nets["n1"].ewma == pytest.approx(1.0)
        assert detector.drifted_nets() == ["n1"]

    def test_gradual_drift_fires_after_smoothing(self):
        detector = DriftDetector(DetectorConfig(threshold=0.5, alpha=0.4))
        assert detector.observe("n1", 1.0) is False  # seeds EWMA at 0
        decisions = feed(detector, "n1", dc=0.2, times=10)
        assert True in decisions
        first_fire = decisions.index(True)
        assert first_fire > 0  # the EWMA needed a few samples to climb
        assert not any(decisions[:first_fire])

    def test_hysteresis_suppresses_flapping(self):
        detector = DriftDetector(DetectorConfig(threshold=0.5, hysteresis=0.2))
        assert detector.observe("n1", 0.0) is True
        # Still broken: every further crossing is swallowed.
        assert not any(feed(detector, "n1", dc=0.0, times=10))
        assert detector.fired == 1
        assert detector.suppressed == 10

    def test_rearms_only_below_threshold_minus_hysteresis(self):
        detector = DriftDetector(
            DetectorConfig(threshold=0.5, hysteresis=0.2, alpha=1.0)
        )
        assert detector.observe("n1", 0.0) is True  # fires, disarms
        # Dc 0.45 → discrepancy 0.55: above threshold, suppressed.
        assert detector.observe("n1", 0.45) is False
        # Dc 0.6 → discrepancy 0.4: inside the hysteresis band — below
        # threshold (no crossing) but not yet re-armed.
        assert detector.observe("n1", 0.6) is False
        assert detector.observe("n1", 0.0) is False  # still disarmed
        detector.observe("n1", 1.0)  # discrepancy 0 → re-arms
        assert detector.observe("n1", 0.0) is True  # fires again
        assert detector.fired == 2

    def test_nets_are_independent(self):
        detector = DriftDetector()
        assert detector.observe("n1", 0.0) is True
        assert detector.observe("n2", 1.0) is False
        # n2's own EWMA has to climb from its healthy seed before firing.
        assert detector.observe("n2", 0.0) is False  # ewma 0.4
        assert detector.observe("n2", 0.0) is True  # ewma 0.64 crosses
        assert detector.fired == 2
        assert detector.drifted_nets() == ["n1", "n2"]


class TestMisfire:
    def test_misfire_point_forces_a_trigger(self):
        faults.install_plan(
            FaultPlan(
                seed=0,
                rules=(FaultRule("stream.detector_misfire", rate=1.0, limit=1),),
            )
        )
        detector = DriftDetector()
        decisions = feed(detector, "n1", dc=1.0, times=5)
        assert decisions.count(True) == 1
        assert detector.misfires == 1
        assert detector.fired == 1  # a misfire is a (wasted) firing

    def test_misfire_draw_is_keyed_per_sample(self):
        # A fractional rate must thin the samples, not behave
        # all-or-nothing: the sha256 draw is keyed on (net, sample#).
        faults.install_plan(FaultPlan.build(seed=0, **{"stream.detector_misfire": 0.5}))
        detector = DriftDetector()
        decisions = feed(detector, "n1", dc=1.0, times=40)
        assert 0 < decisions.count(True) < 40

    def test_no_plan_no_misfires(self):
        detector = DriftDetector()
        assert not any(feed(detector, "n1", dc=1.0, times=20))
        assert detector.misfires == 0
