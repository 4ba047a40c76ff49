"""Experience gossip: one shop's lessons reach every replica.

The paper's §7 learning loop records symptom→failure rules as
diagnoses are confirmed.  In cluster mode each replica only sees its
own shard of the traffic, so its :class:`ExperienceBase` would only
ever learn *its* circuits.  The gateway closes the loop with
star-topology gossip: every round it pulls each replica's experience
snapshot (``GET /v1/experience``), folds the *new* occurrences into a
cluster-wide ledger, and pushes each replica the ledger entries it
hasn't seen yet (``POST /v1/experience``, noisy-or ``merge()`` on the
replica side).

The hard part is idempotence — occurrence counts must not inflate as
snapshots keep arriving.  :class:`ExperienceGossip` keeps, per replica,
the occurrence count it *expects* that replica to report for each rule
(what the replica last reported plus every delta successfully delivered
to it).  Only the positive difference between a fresh report and that
expectation is new evidence; deliveries advance the expectation only
after the POST succeeds, so a dropped delivery (the
``cluster.gossip_drop`` fault point, a crashed replica) is simply
retried next round.  A replica restart bumps its epoch, which clears
its expectation table — the fresh process re-reports everything it
re-learns and receives the full ledger back, so learned experience
survives any single replica's death.

Delta certainty follows the learning model: ``k`` new occurrences of a
rule are delivered at certainty ``1 - (1 - base)^k``, which a replica's
noisy-or merge combines with its own view to exactly the certainty it
would have reached had it witnessed every episode locally — replicas
*converge* instead of drifting.

Persistence changes the restart story: when the cluster shares a
durable store (``--store``), the gateway primes the ledger from it at
boot (:meth:`ExperienceGossip.seed`), and every replica restores the
same experience on spawn.  A restored replica's ``/v1/experience``
export annotates each restored rule with ``seed_occurrences`` — the
count it *re-reports* rather than re-learned — and :meth:`observe`
uses that as the expectation baseline for first-seen keys, so restored
history is never double-counted as fresh evidence and never
re-delivered to the replica that already holds it.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

__all__ = ["ExperienceGossip"]

#: A rule's identity: (signature entries, component, mode).
RuleKey = Tuple[Tuple[Tuple[str, str, int], ...], str, str]


def _rule_key(entry: Dict) -> RuleKey:
    signature = tuple(
        sorted((str(p), str(b), int(d)) for p, b, d in entry.get("signature", []))
    )
    return signature, str(entry.get("component", "")), str(entry.get("mode", ""))


#: Rule certainty after one episode, until a replica's snapshot reports its own.
BASE_CERTAINTY = 0.6


class ExperienceGossip:
    """The gateway's cluster-wide experience ledger and delivery state."""

    def __init__(self) -> None:
        self.base_certainty = BASE_CERTAINTY
        # key -> cumulative occurrences across the whole cluster.
        self._ledger: Dict[RuleKey, int] = {}
        # per replica: what occurrence count we expect it to report next
        # (last report + successfully delivered deltas).
        self._expected: Dict[str, Dict[RuleKey, int]] = {}
        self._epochs: Dict[str, int] = {}
        self._episodes: Dict[str, int] = {}  # expected episode_count per replica
        self.episode_total = 0
        self.rounds = 0
        self.deliveries = 0
        self.dropped = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _touch(self, replica_id: str, epoch: int) -> None:
        """Bind state to the replica's current process generation.

        A changed (or first-seen) epoch means a fresh, empty process:
        whatever we expected the old process to hold is gone, so the
        expectation table clears — everything re-reported is fresh
        evidence, and the full ledger becomes pending again.
        """
        if self._epochs.get(replica_id) != epoch:
            self._expected[replica_id] = {}
            self._episodes[replica_id] = 0
            self._epochs[replica_id] = epoch

    def observe(self, replica_id: str, epoch: int, snapshot: Dict) -> int:
        """Fold one replica's experience snapshot into the ledger.

        Returns the number of *new* occurrences learned from this
        snapshot (0 when the replica reported nothing we did not
        already know about).
        """
        with self._lock:
            self._touch(replica_id, epoch)
            if snapshot.get("base_certainty") is not None:
                self.base_certainty = float(snapshot["base_certainty"])
            expected = self._expected.setdefault(replica_id, {})
            fresh = 0
            for entry in snapshot.get("rules", []):
                key = _rule_key(entry)
                reported = int(entry.get("occurrences", 1))
                if key not in expected:
                    # A replica that restored experience from a durable
                    # store re-reports persisted occurrences; its export
                    # marks how many (``seed_occurrences``) so they seed
                    # the expectation instead of counting as fresh.
                    baseline = int(entry.get("seed_occurrences", 0))
                    if baseline > 0:
                        expected[key] = baseline
                delta = reported - expected.get(key, 0)
                if delta > 0:
                    self._ledger[key] = self._ledger.get(key, 0) + delta
                    fresh += delta
                expected[key] = max(expected.get(key, 0), reported)
            reported_episodes = int(snapshot.get("episode_count", 0))
            episode_baseline = max(
                self._episodes.get(replica_id, 0),
                int(snapshot.get("seed_episode_count", 0)),
            )
            episode_delta = reported_episodes - episode_baseline
            if episode_delta > 0:
                self.episode_total += episode_delta
            self._episodes[replica_id] = max(episode_baseline, reported_episodes)
            return fresh

    # ------------------------------------------------------------------
    def seed(self, snapshot: Dict) -> int:
        """Prime the ledger from a persisted experience snapshot (boot).

        Raises each rule's cluster-wide total to at least its persisted
        occurrence count — nothing is attributed to any replica and no
        delivery state moves, so gossip proper starts from the durable
        baseline instead of zero after a gateway restart.  Returns the
        number of occurrences added.
        """
        with self._lock:
            if snapshot.get("base_certainty") is not None:
                self.base_certainty = float(snapshot["base_certainty"])
            added = 0
            for entry in snapshot.get("rules", []):
                key = _rule_key(entry)
                total = int(entry.get("occurrences", 1))
                have = self._ledger.get(key, 0)
                if total > have:
                    self._ledger[key] = total
                    added += total - have
            episodes = int(snapshot.get("episode_count", 0))
            if episodes > self.episode_total:
                self.episode_total = episodes
            return added

    # ------------------------------------------------------------------
    def pending(self, replica_id: str) -> Optional[Dict]:
        """The experience delta ``replica_id`` has not acknowledged.

        Shaped as an :class:`ExperienceBase` dict ready to POST: each
        rule carries its missing occurrence count ``k`` at certainty
        ``1 - (1 - base)^k``.  None when the replica is up to date.
        """
        with self._lock:
            expected = self._expected.get(replica_id, {})
            rules: List[Dict] = []
            for key, total in self._ledger.items():
                missing = total - expected.get(key, 0)
                if missing <= 0:
                    continue
                signature, component, mode = key
                rules.append(
                    {
                        "signature": [list(entry) for entry in signature],
                        "component": component,
                        "mode": mode,
                        "occurrences": missing,
                        "certainty": 1.0 - (1.0 - self.base_certainty) ** missing,
                    }
                )
            if not rules:
                return None
            return {
                "base_certainty": self.base_certainty,
                "episode_count": 0,  # occurrences carry the evidence
                "rules": rules,
            }

    def mark_delivered(
        self, replica_id: str, payload: Dict, epoch: Optional[int] = None
    ) -> None:
        """Advance the replica's expectation after a successful POST.

        Never called on failure — an undelivered delta stays pending
        and is retried on the next round.  ``epoch`` (when known) binds
        the delivery to the process generation that received it, so a
        delivery racing a restart cannot poison the fresh process's
        baseline.
        """
        with self._lock:
            if epoch is not None:
                self._touch(replica_id, epoch)
            expected = self._expected.setdefault(replica_id, {})
            for entry in payload.get("rules", []):
                key = _rule_key(entry)
                expected[key] = expected.get(key, 0) + int(entry.get("occurrences", 1))
            self.deliveries += 1

    # ------------------------------------------------------------------
    def note_round(self) -> None:
        with self._lock:
            self.rounds += 1

    def note_drop(self) -> None:
        """A delivery the chaos plan (or the network) ate this round."""
        with self._lock:
            self.dropped += 1

    def export(self) -> Dict:
        """The full ledger as an :class:`ExperienceBase` dict.

        The gateway's ``GET /v1/experience`` — the cluster-wide view of
        everything any replica has learned, occurrences at the
        certainty the learning model assigns to that much repetition.
        """
        with self._lock:
            rules = []
            for (signature, component, mode), total in self._ledger.items():
                rules.append(
                    {
                        "signature": [list(entry) for entry in signature],
                        "component": component,
                        "mode": mode,
                        "occurrences": total,
                        "certainty": 1.0 - (1.0 - self.base_certainty) ** total,
                    }
                )
            return {
                "base_certainty": self.base_certainty,
                "episode_count": self.episode_total,
                "rules": rules,
            }

    def snapshot(self) -> Dict:
        with self._lock:
            return {
                "rules": len(self._ledger),
                "occurrences": sum(self._ledger.values()),
                "episodes": self.episode_total,
                "rounds": self.rounds,
                "deliveries": self.deliveries,
                "dropped": self.dropped,
            }
