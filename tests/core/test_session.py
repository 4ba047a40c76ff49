"""Tests for the TroubleshootingSession facade (the full figure-3 system)."""

import pytest

from repro.circuit import DCSolver, Fault, FaultKind, apply_fault, three_stage_amplifier
from repro.core import ExperienceBase, TroubleshootingSession


@pytest.fixture()
def golden():
    return three_stage_amplifier()


@pytest.fixture()
def bench(golden):
    return DCSolver(apply_fault(golden, Fault(FaultKind.SHORT, "R2"))).solve()


@pytest.fixture()
def healthy_bench(golden):
    return DCSolver(golden).solve()


class TestObservation:
    def test_requires_observation_before_result(self, golden):
        session = TroubleshootingSession(golden)
        assert not session.has_observations
        with pytest.raises(RuntimeError):
            session.result

    def test_observe_requires_measurements(self, golden):
        session = TroubleshootingSession(golden)
        with pytest.raises(ValueError):
            session.observe()

    def test_accumulates_measurements(self, golden, bench):
        session = TroubleshootingSession(golden)
        session.observe_probe(bench, "vs")
        session.observe_probe(bench, "v1")
        assert {m.point for m in session.measurements} == {"V(vs)", "V(v1)"}

    def test_remeasuring_replaces(self, golden, bench):
        session = TroubleshootingSession(golden)
        session.observe_probe(bench, "vs", imprecision=0.1)
        session.observe_probe(bench, "vs", imprecision=0.01)
        assert len(session.measurements) == 1
        assert session.measurements[0].value.alpha == pytest.approx(0.01)

    def test_healthy_unit(self, golden, healthy_bench):
        session = TroubleshootingSession(golden)
        session.observe_probe(healthy_bench, "vs")
        assert session.unit_looks_healthy

    def test_faulty_unit(self, golden, bench):
        session = TroubleshootingSession(golden)
        session.observe_probe(bench, "vs")
        assert not session.unit_looks_healthy


class TestWorkflow:
    def _diagnose(self, golden, bench):
        session = TroubleshootingSession(golden)
        for net in ("vs", "v2", "v1"):
            session.observe_probe(bench, net)
        return session

    def test_candidates_ranked(self, golden, bench):
        session = self._diagnose(golden, bench)
        candidates = session.candidates()
        assert candidates
        scores = [s for _, s in candidates]
        assert scores == sorted(scores, reverse=True)

    def test_refinements_propose_the_short(self, golden, bench):
        session = self._diagnose(golden, bench)
        refinements = session.refinements(top_k=3)
        assert any(m.component == "R2" and m.mode == "short" for m in refinements)

    def test_recommendation_avoids_measured(self, golden, bench):
        session = self._diagnose(golden, bench)
        recommendation = session.recommend_next()
        assert recommendation is not None
        assert recommendation.point not in {m.point for m in session.measurements}

    def test_report_renders(self, golden, bench):
        session = self._diagnose(golden, bench)
        text = session.report()
        assert "fault-mode refinement" in text

    def test_confirm_unknown_component(self, golden, bench):
        session = self._diagnose(golden, bench)
        with pytest.raises(KeyError):
            session.confirm("R99")


class TestExperienceFlow:
    def test_experience_boosts_next_unit(self, golden, bench):
        shared = ExperienceBase()
        session = TroubleshootingSession(golden, experience=shared)
        for net in ("vs", "v2", "v1"):
            session.observe_probe(bench, net)
        baseline_rank = [name for name, _ in session.candidates()].index("R2")
        session.confirm("R2", "short")

        session = TroubleshootingSession(golden, experience=shared)
        bench2 = DCSolver(apply_fault(golden, Fault(FaultKind.SHORT, "R2"))).solve()
        for net in ("vs", "v2", "v1"):
            session.observe_probe(bench2, net)
        assert session.experience.suggest(session.signature())
        boosted_rank = [name for name, _ in session.candidates()].index("R2")
        assert boosted_rank <= baseline_rank
        assert boosted_rank == 0

    def test_fresh_experience_by_default(self, golden, bench):
        session = TroubleshootingSession(golden)
        for net in ("vs", "v2", "v1"):
            session.observe_probe(bench, net)
        assert session.experience.suggest(session.signature()) == []

    def test_repeat_confirmations_across_units_reinforce(self, golden, bench):
        shared = ExperienceBase()
        for _ in range(3):
            session = TroubleshootingSession(golden, experience=shared)
            for net in ("vs", "v2", "v1"):
                session.observe_probe(bench, net)
            rule = session.confirm("R2", "short")
        assert rule.occurrences == 3
        assert session.experience.episode_count == 3
        assert rule.certainty > session.experience.base_certainty

    def test_shared_base_carries_between_sessions(self, golden, bench):
        """A second bench (fresh session object) benefits from the first."""
        shared = ExperienceBase()
        first = TroubleshootingSession(golden, experience=shared)
        for net in ("vs", "v2", "v1"):
            first.observe_probe(bench, net)
        first.confirm("R2", "short")

        second = TroubleshootingSession(golden, experience=shared)
        for net in ("vs", "v2", "v1"):
            second.observe_probe(bench, net)
        assert second.experience.suggest(second.signature())
        assert second.candidates()[0][0] == "R2"
        assert second.candidates()[0][1] > 1.0


class TestConfigDefaults:
    def test_default_config_is_per_instance(self, golden):
        a = TroubleshootingSession(golden)
        b = TroubleshootingSession(golden)
        assert a.engine.config is not b.engine.config
