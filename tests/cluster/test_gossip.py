"""Tests for the gossip ledger: no echo, retries, epoch re-seed."""

import json

import pytest

from repro.cluster.gossip import ExperienceGossip
from repro.core.learning import Episode, ExperienceBase, SymptomSignature

SIG_A = (("V(mid)", "slight", 1),)
SIG_B = (("V(out)", "conflict", -1),)


def snapshot_with(*episodes, base_certainty=0.6):
    """An ExperienceBase dict containing the given (sig, component) episodes."""
    base = ExperienceBase(base_certainty=base_certainty)
    for entries, component in episodes:
        base.record(Episode(SymptomSignature(entries), component))
    return base.to_dict()


class TestObserve:
    def test_first_snapshot_is_all_new(self):
        gossip = ExperienceGossip()
        fresh = gossip.observe("r0", 1, snapshot_with((SIG_A, "R1"), (SIG_A, "R1")))
        assert fresh == 2  # one rule, two occurrences
        assert gossip.snapshot()["rules"] == 1

    def test_reobserving_the_same_snapshot_adds_nothing(self):
        gossip = ExperienceGossip()
        snap = snapshot_with((SIG_A, "R1"))
        assert gossip.observe("r0", 1, snap) == 1
        assert gossip.observe("r0", 1, snap) == 0
        assert gossip.export()["rules"][0]["occurrences"] == 1

    def test_two_replicas_same_rule_accumulates(self):
        gossip = ExperienceGossip()
        gossip.observe("r0", 1, snapshot_with((SIG_A, "R1")))
        gossip.observe("r1", 1, snapshot_with((SIG_A, "R1")))
        assert gossip.export()["rules"][0]["occurrences"] == 2

    def test_episode_totals_track_deltas(self):
        gossip = ExperienceGossip()
        gossip.observe("r0", 1, snapshot_with((SIG_A, "R1"), (SIG_B, "R2")))
        gossip.observe("r0", 1, snapshot_with((SIG_A, "R1"), (SIG_B, "R2")))
        assert gossip.snapshot()["episodes"] == 2


class TestDelivery:
    def test_source_replica_owes_nothing(self):
        # Echo-free: what a replica reported must never be sent back.
        gossip = ExperienceGossip()
        gossip.observe("r0", 1, snapshot_with((SIG_A, "R1")))
        assert gossip.pending("r0") is None
        delta = gossip.pending("r1")
        assert delta is not None and delta["rules"][0]["occurrences"] == 1

    def test_delivered_delta_stops_pending(self):
        gossip = ExperienceGossip()
        gossip.observe("r0", 1, snapshot_with((SIG_A, "R1")))
        delta = gossip.pending("r1")
        gossip.mark_delivered("r1", delta)
        assert gossip.pending("r1") is None

    def test_merged_counts_reported_back_are_not_new(self):
        # After r1 merges the delivered delta, its next snapshot includes
        # those occurrences — they must not count as fresh evidence.
        gossip = ExperienceGossip()
        gossip.observe("r0", 1, snapshot_with((SIG_A, "R1")))
        delta = gossip.pending("r1")
        gossip.mark_delivered("r1", delta, epoch=1)
        merged = ExperienceBase.from_dict(snapshot_with((SIG_A, "R1")))
        assert gossip.observe("r1", 1, merged.to_dict()) == 0
        assert gossip.export()["rules"][0]["occurrences"] == 1

    def test_dropped_delivery_stays_pending(self):
        # mark_delivered is only called on success; a dropped POST means
        # the same delta is offered again next round.
        gossip = ExperienceGossip()
        gossip.observe("r0", 1, snapshot_with((SIG_A, "R1")))
        first = gossip.pending("r1")
        second = gossip.pending("r1")  # no mark_delivered in between
        assert first == second

    def test_delta_certainty_follows_repetition(self):
        gossip = ExperienceGossip()
        gossip.observe("r0", 1, snapshot_with((SIG_A, "R1"), (SIG_A, "R1"), (SIG_A, "R1")))
        delta = gossip.pending("r1")
        rule = delta["rules"][0]
        assert rule["occurrences"] == 3
        assert rule["certainty"] == pytest.approx(1.0 - 0.4**3)


class TestEpochs:
    def test_restart_reseeds_the_replica(self):
        # A bumped epoch means a fresh, empty process: the full ledger
        # becomes pending again, and its re-reports are fresh evidence.
        gossip = ExperienceGossip()
        gossip.observe("r0", 1, snapshot_with((SIG_A, "R1")))
        delta = gossip.pending("r1")
        gossip.mark_delivered("r1", delta)
        assert gossip.pending("r1") is None
        gossip.observe("r1", 2, {"base_certainty": 0.6, "episode_count": 0, "rules": []})
        reseed = gossip.pending("r1")
        assert reseed is not None and reseed["rules"][0]["occurrences"] == 1

    def test_same_epoch_keeps_state(self):
        gossip = ExperienceGossip()
        gossip.observe("r0", 1, snapshot_with((SIG_A, "R1")))
        gossip.observe("r0", 1, snapshot_with((SIG_A, "R1")))
        assert gossip.export()["rules"][0]["occurrences"] == 1


class TestExport:
    def test_export_is_a_loadable_experience_base(self):
        gossip = ExperienceGossip()
        gossip.observe("r0", 1, snapshot_with((SIG_A, "R1"), (SIG_B, "R2")))
        exported = json.loads(json.dumps(gossip.export()))
        base = ExperienceBase.from_dict(exported)
        assert len(base) == 2
        components = {rule.component for rule in base.rules}
        assert components == {"R1", "R2"}


def _annotate_seed(snapshot, occurrences=None, episodes=None):
    """A restored replica's export: restored rules carry seed_occurrences."""
    annotated = json.loads(json.dumps(snapshot))
    for entry in annotated["rules"]:
        entry["seed_occurrences"] = (
            occurrences if occurrences is not None else entry["occurrences"]
        )
    if episodes is not None:
        annotated["seed_episode_count"] = episodes
    return annotated


class TestStoreSeeding:
    def test_seed_primes_the_ledger(self):
        gossip = ExperienceGossip()
        persisted = snapshot_with((SIG_A, "R1"), (SIG_A, "R1"), (SIG_B, "R2"))
        added = gossip.seed(persisted)
        assert added == 3
        assert gossip.snapshot()["rules"] == 2
        assert gossip.snapshot()["episodes"] == 3
        # Seeding attributes nothing to any replica: a fresh replica
        # owes the whole ledger.
        delta = gossip.pending("r0")
        assert delta is not None
        assert sum(r["occurrences"] for r in delta["rules"]) == 3

    def test_seed_is_idempotent(self):
        gossip = ExperienceGossip()
        persisted = snapshot_with((SIG_A, "R1"))
        assert gossip.seed(persisted) == 1
        assert gossip.seed(persisted) == 0
        assert gossip.export()["rules"][0]["occurrences"] == 1

    def test_restored_replica_report_is_not_fresh_evidence(self):
        # The round trip persistence enables: gateway seeds from the
        # store, a replica restores the same rules from the same store
        # and re-reports them annotated — the ledger must not inflate.
        gossip = ExperienceGossip()
        persisted = snapshot_with((SIG_A, "R1"), (SIG_A, "R1"))
        gossip.seed(persisted)
        report = _annotate_seed(persisted, episodes=2)
        assert gossip.observe("r0", 1, report) == 0
        assert gossip.export()["rules"][0]["occurrences"] == 2
        assert gossip.snapshot()["episodes"] == 2
        assert gossip.pending("r0") is None

    def test_new_evidence_on_top_of_seed_counts(self):
        gossip = ExperienceGossip()
        persisted = snapshot_with((SIG_A, "R1"))
        gossip.seed(persisted)
        # The replica restored one occurrence, then learned two more.
        grown = snapshot_with((SIG_A, "R1"), (SIG_A, "R1"), (SIG_A, "R1"))
        report = _annotate_seed(grown, occurrences=1, episodes=1)
        assert gossip.observe("r0", 1, report) == 2
        assert gossip.export()["rules"][0]["occurrences"] == 3
        assert gossip.snapshot()["episodes"] == 3

    def test_unannotated_replica_still_counts_fresh(self):
        # A replica without a store reports no seed markers: its rules
        # are fresh evidence exactly as before the persistence plane.
        gossip = ExperienceGossip()
        gossip.seed(snapshot_with((SIG_A, "R1")))
        fresh = gossip.observe("r0", 1, snapshot_with((SIG_B, "R2")))
        assert fresh == 1
        assert gossip.snapshot()["rules"] == 2

    def test_restart_epoch_reapplies_seed_baseline(self):
        # After a replica restart (epoch bump) the expectation table
        # clears; the re-reported restored rules re-seed the baseline
        # instead of double-counting.
        gossip = ExperienceGossip()
        persisted = snapshot_with((SIG_A, "R1"), (SIG_A, "R1"))
        gossip.seed(persisted)
        report = _annotate_seed(persisted, episodes=2)
        gossip.observe("r0", 1, report)
        gossip.observe("r0", 2, report)  # restarted, restored again
        assert gossip.export()["rules"][0]["occurrences"] == 2
        assert gossip.snapshot()["episodes"] == 2
