"""Tests for the consistent-hash ring: spread, stability, failover order."""

import hashlib
import json

import pytest

from repro.cluster.ring import HashRing

#: Routing keys shaped like real job content hashes (sha256 hex).
KEYS = [hashlib.sha256(f"job-{i}".encode()).hexdigest() for i in range(400)]


class TestMembership:
    def test_add_is_idempotent(self):
        ring = HashRing(["r0", "r1"])
        before = ring.snapshot()
        ring.add("r0")
        assert ring.snapshot() == before
        assert len(ring) == 2
        assert "r0" in ring and "r2" not in ring

    def test_vnodes_validation(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)

    def test_snapshot_is_json_safe(self):
        ring = HashRing(["r0", "r1"], vnodes=8)
        snap = json.loads(json.dumps(ring.snapshot()))
        assert snap["nodes"] == ["r0", "r1"]
        assert snap["points"] == 16


class TestRouting:
    def test_route_is_deterministic(self):
        a, b = HashRing(["r0", "r1", "r2"]), HashRing(["r2", "r1", "r0"])
        for key in KEYS:
            assert a.route(key) == b.route(key)

    def test_empty_ring_routes_nowhere(self):
        ring = HashRing()
        assert ring.route("abc") is None
        assert ring.preference("abc") == []

    def test_load_spreads_over_all_replicas(self):
        ring = HashRing(["r0", "r1", "r2"])
        counts = {"r0": 0, "r1": 0, "r2": 0}
        for key in KEYS:
            counts[ring.route(key)] += 1
        # With 64 vnodes each replica should own a meaningful share —
        # no replica starved, none hoarding.
        for owner, count in counts.items():
            assert count > len(KEYS) * 0.15, (owner, counts)

    def test_preference_lists_every_replica_once_primary_first(self):
        ring = HashRing(["r0", "r1", "r2"])
        for key in KEYS[:50]:
            order = ring.preference(key)
            assert sorted(order) == ["r0", "r1", "r2"]
            assert order[0] == ring.route(key)

    def test_preference_count_truncates(self):
        ring = HashRing(["r0", "r1", "r2"])
        assert len(ring.preference(KEYS[0], count=2)) == 2
        assert len(ring.preference(KEYS[0], count=99)) == 3

    def test_non_hex_keys_still_route(self):
        ring = HashRing(["r0", "r1"])
        assert ring.route("not a hash at all!") in ("r0", "r1")


class TestStability:
    def test_removal_only_moves_the_victims_keys(self):
        before = {key: HashRing(["r0", "r1", "r2"]).route(key) for key in KEYS}
        ring = HashRing(["r0", "r2"])
        for key in KEYS:
            after = ring.route(key)
            if before[key] == "r1":
                assert after in ("r0", "r2")
            else:
                # A key r1 never owned must not move at all.
                assert after == before[key]

    def test_readd_restores_the_exact_assignment(self):
        # A replica that dies and comes back (same stable id) reclaims
        # exactly its old shard — warm-cache locality survives restarts.
        before = {key: HashRing(["r0", "r1", "r2"]).route(key) for key in KEYS}
        ring = HashRing(["r0", "r2"])
        ring.add("r1")
        assert {key: ring.route(key) for key in KEYS} == before

    def test_growth_only_steals_for_the_newcomer(self):
        ring = HashRing(["r0", "r1"])
        before = {key: ring.route(key) for key in KEYS}
        ring.add("r2")
        moved = 0
        for key in KEYS:
            after = ring.route(key)
            if after != before[key]:
                assert after == "r2"  # keys only move *to* the new node
                moved += 1
        assert 0 < moved < len(KEYS)

    def test_failover_order_stable_without_the_dead_primary(self):
        # The gateway filters the preference list to live replicas; the
        # survivors' relative order must match a ring without the dead
        # node, so every router agrees on the fallback.
        ring = HashRing(["r0", "r1", "r2"])
        shrunk = HashRing(["r0", "r1"])
        for key in KEYS[:100]:
            filtered = [rid for rid in ring.preference(key) if rid != "r2"]
            assert filtered == shrunk.preference(key)
