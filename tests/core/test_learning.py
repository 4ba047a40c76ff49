"""Tests for learning from experience."""

import pytest

from repro.circuit import DCSolver, Fault, FaultKind, apply_fault, probe_all, three_stage_amplifier
from repro.core import Flames
from repro.core import learning
from repro.core.learning import Episode, ExperienceBase, SymptomSignature


def signature(entries):
    return SymptomSignature(tuple(sorted(entries)))


SIG_A = signature([("V(vs)", "conflict", 1), ("V(v1)", "conflict", -1)])
SIG_B = signature([("V(vs)", "conflict", -1), ("V(v1)", "conflict", 1)])


class TestSignatures:
    def test_equality(self):
        assert SIG_A == signature(
            [("V(v1)", "conflict", -1), ("V(vs)", "conflict", 1)]
        )
        assert SIG_A != SIG_B

    def test_similarity_full_match(self):
        assert SIG_A.similarity(SIG_A) == 1.0

    def test_similarity_partial(self):
        half = signature([("V(vs)", "conflict", 1), ("V(v1)", "conflict", 1)])
        assert 0.0 < SIG_A.similarity(half) < 1.0

    def test_similarity_disjoint_probes(self):
        other = signature([("V(x)", "conflict", 1)])
        assert SIG_A.similarity(other) == 0.0

    def test_from_result(self):
        golden = three_stage_amplifier()
        engine = Flames(golden)
        op = DCSolver(apply_fault(golden, Fault(FaultKind.SHORT, "R2"))).solve()
        result = engine.diagnose(probe_all(op, ["vs", "v1"], imprecision=0.02))
        sig = SymptomSignature.from_result(result)
        assert len(sig.entries) == 2
        assert any(bucket != "consistent" for _, bucket, _ in sig.entries)


class TestExperienceBase:
    def test_record_creates_rule(self):
        xp = ExperienceBase()
        rule = xp.record(Episode(SIG_A, "R2", "short"))
        assert rule.certainty == pytest.approx(0.6)
        assert len(xp) == 1

    def test_reinforcement_raises_certainty(self):
        xp = ExperienceBase(base_certainty=0.6)
        xp.record(Episode(SIG_A, "R2", "short"))
        rule = xp.record(Episode(SIG_A, "R2", "short"))
        assert rule.occurrences == 2
        assert rule.certainty == pytest.approx(1.0 - 0.4 * 0.4)
        assert len(xp) == 1

    def test_certainty_asymptotic_below_one(self):
        xp = ExperienceBase(base_certainty=0.6)
        for _ in range(20):
            rule = xp.record(Episode(SIG_A, "R2", "short"))
        assert 0.99 < rule.certainty < 1.0

    def test_distinct_culprits_distinct_rules(self):
        xp = ExperienceBase()
        xp.record(Episode(SIG_A, "R2", "short"))
        xp.record(Episode(SIG_A, "R1", "open"))
        assert len(xp) == 2

    def test_invalid_base_certainty(self):
        with pytest.raises(ValueError):
            ExperienceBase(base_certainty=1.0)

    def test_suggest_exact_match(self):
        xp = ExperienceBase()
        xp.record(Episode(SIG_A, "R2", "short"))
        hits = xp.suggest(SIG_A)
        assert len(hits) == 1
        assert hits[0][0].component == "R2"

    def test_suggest_requires_match(self):
        xp = ExperienceBase()
        xp.record(Episode(SIG_A, "R2", "short"))
        assert xp.suggest(SIG_B) == []

    def test_suggest_analogical_with_lower_threshold(self, monkeypatch):
        xp = ExperienceBase()
        xp.record(Episode(SIG_A, "R2", "short"))
        near = signature([("V(vs)", "conflict", 1), ("V(v1)", "partial", -1)])
        assert xp.suggest(near) == []
        monkeypatch.setattr(learning, "MIN_SIMILARITY", 0.4)
        hits = xp.suggest(near)
        assert hits and hits[0][0].component == "R2"

    def test_boost_breaks_ties(self):
        xp = ExperienceBase()
        xp.record(Episode(SIG_A, "R2", "short"))
        suspicions = {"R1": 1.0, "R2": 1.0, "R3": 1.0}
        boosted = xp.boost_suspicions(suspicions, SIG_A)
        assert boosted["R2"] > boosted["R1"]

    def test_boost_does_not_drop_evidence(self):
        xp = ExperienceBase()
        xp.record(Episode(SIG_A, "R2", "short"))
        suspicions = {"R1": 1.0}
        boosted = xp.boost_suspicions(suspicions, SIG_A)
        assert boosted["R1"] == 1.0

    def test_episode_count_tracked(self):
        xp = ExperienceBase()
        xp.record(Episode(SIG_A, "R2"))
        xp.record(Episode(SIG_A, "R2"))
        assert xp.episode_count == 2


class TestPersistence:
    def test_json_round_trip(self, tmp_path):
        xp = ExperienceBase(base_certainty=0.7)
        xp.record(Episode(SIG_A, "R2", "short"))
        xp.record(Episode(SIG_A, "R2", "short"))
        xp.record(Episode(SIG_B, "R3", "open"))
        path = tmp_path / "shop.json"
        xp.save(path)
        loaded = ExperienceBase.load(path)
        assert len(loaded) == 2
        assert loaded.base_certainty == 0.7
        assert loaded.episode_count == 3
        rule = next(r for r in loaded.rules if r.component == "R2")
        assert rule.occurrences == 2
        assert rule.signature == SIG_A

    def test_loaded_rules_still_match(self, tmp_path):
        xp = ExperienceBase()
        xp.record(Episode(SIG_A, "R2", "short"))
        path = tmp_path / "shop.json"
        xp.save(path)
        loaded = ExperienceBase.load(path)
        hits = loaded.suggest(SIG_A)
        assert hits and hits[0][0].component == "R2"

    def test_signature_list_round_trip(self):
        assert SymptomSignature.from_list(SIG_A.to_list()) == SIG_A


class TestMerge:
    def test_merge_copies_new_rules(self):
        ours = ExperienceBase()
        theirs = ExperienceBase()
        theirs.record(Episode(SIG_A, "R2", "short"))
        ours.merge(theirs)
        assert len(ours) == 1
        assert ours.rules[0].component == "R2"
        assert ours.episode_count == 1

    def test_merge_reinforces_matching_rules(self):
        ours = ExperienceBase(base_certainty=0.6)
        theirs = ExperienceBase(base_certainty=0.6)
        ours.record(Episode(SIG_A, "R2", "short"))
        theirs.record(Episode(SIG_A, "R2", "short"))
        ours.merge(theirs)
        assert len(ours) == 1
        rule = ours.rules[0]
        assert rule.occurrences == 2
        # 1 - (1 - 0.6)(1 - 0.6) = 0.84: merging matches repetition
        assert rule.certainty == pytest.approx(0.84)

    def test_merge_is_independent_copy(self):
        ours = ExperienceBase()
        theirs = ExperienceBase()
        theirs.record(Episode(SIG_A, "R2", "short"))
        ours.merge(theirs)
        theirs.rules[0].certainty = 0.99
        assert ours.rules[0].certainty != 0.99

    def test_merge_keeps_distinct_modes_apart(self):
        ours = ExperienceBase()
        theirs = ExperienceBase()
        ours.record(Episode(SIG_A, "R2", "short"))
        theirs.record(Episode(SIG_A, "R2", "open"))
        theirs.record(Episode(SIG_B, "R2", "short"))
        ours.merge(theirs)
        assert len(ours) == 3

    def test_merged_rules_fire_on_suggest(self):
        ours = ExperienceBase()
        theirs = ExperienceBase()
        theirs.record(Episode(SIG_A, "R2", "short"))
        ours.merge(theirs)
        hits = ours.suggest(SIG_A)
        assert hits and hits[0][0].component == "R2"

    def test_merge_returns_self_for_chaining(self):
        ours = ExperienceBase()
        assert ours.merge(ExperienceBase()) is ours
