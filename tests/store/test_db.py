"""Tests for the sqlite persistence plane: sealed cache rows, versioned
experience, tenant provisioning and diagnosis history."""

import hashlib
import json

import pytest

from repro.core.learning import ExperienceBase, rule_identity
from repro.store import PUBLIC_TENANT, DiagnosisStore
from tests.helpers import corrupt_cache_row


def _seal(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return blob, hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture
def store(tmp_path):
    with DiagnosisStore(tmp_path / "store.db") as db:
        yield db


class TestCacheRows:
    def test_miss_then_hit(self, store):
        status, blob = store.cache_get("public", "k1")
        assert (status, blob) == ("miss", None)
        body, digest = _seal({"unit": "u1"})
        store.cache_put("public", "k1", body, digest)
        status, blob = store.cache_get("public", "k1")
        assert status == "hit"
        assert json.loads(blob) == {"unit": "u1"}

    def test_rows_survive_reopen(self, tmp_path):
        path = tmp_path / "store.db"
        body, digest = _seal({"unit": "u1"})
        with DiagnosisStore(path) as db:
            db.cache_put("public", "k1", body, digest)
        with DiagnosisStore(path) as db:
            status, blob = db.cache_get("public", "k1")
        assert status == "hit"
        assert blob == body

    def test_tampered_row_is_purged(self, store):
        body, digest = _seal({"unit": "u1"})
        store.cache_put("public", "k1", body, digest)
        assert corrupt_cache_row(store, "public", "k1")
        status, blob = store.cache_get("public", "k1")
        assert (status, blob) == ("corrupt", None)
        # Purged: the next read is an ordinary miss, not corrupt again.
        assert store.cache_get("public", "k1") == ("miss", None)
        assert store.cache_rows() == 0

    def test_namespaces_do_not_collide(self, store):
        body_a, digest_a = _seal({"unit": "a"})
        body_b, digest_b = _seal({"unit": "b"})
        store.cache_put("acme", "k", body_a, digest_a)
        store.cache_put("globex", "k", body_b, digest_b)
        assert json.loads(store.cache_get("acme", "k")[1])["unit"] == "a"
        assert json.loads(store.cache_get("globex", "k")[1])["unit"] == "b"
        assert store.cache_rows() == 2

    def test_lru_eviction_by_row_count(self, store):
        for i in range(4):
            body, digest = _seal({"i": i})
            store.cache_put("public", f"k{i}", body, digest, max_rows=4)
        store.cache_get("public", "k0")  # refresh k0: k1 is now the LRU row
        body, digest = _seal({"i": 4})
        evicted = store.cache_put("public", "k4", body, digest, max_rows=4)
        assert evicted == 1
        assert store.cache_get("public", "k1") == ("miss", None)
        assert store.cache_get("public", "k0")[0] == "hit"


class TestExperience:
    def _delta(self, certainty=0.6, occurrences=1):
        return {
            "base_certainty": 0.6,
            "episode_count": 1,
            "rules": [
                {
                    "signature": [["V(out)", "conflict", -1]],
                    "component": "R1",
                    "mode": "open",
                    "certainty": certainty,
                    "occurrences": occurrences,
                }
            ],
        }

    def test_merge_is_noisy_or(self, store):
        assert store.merge_experience("public", self._delta()) == 1
        assert store.merge_experience("public", self._delta()) == 2
        data, version = store.load_experience("public")
        assert version == 2
        [rule] = data["rules"]
        assert rule["occurrences"] == 2
        assert rule["certainty"] == pytest.approx(1.0 - 0.4 * 0.4)
        assert data["episode_count"] == 2

    def test_matches_in_memory_merge(self, store):
        """The sqlite fold and ExperienceBase.merge agree bit for bit."""
        store.merge_experience("public", self._delta())
        store.merge_experience("public", self._delta(certainty=0.8))
        persisted, _ = store.load_experience("public")

        base = ExperienceBase.from_dict(self._delta())
        base.merge(ExperienceBase.from_dict(self._delta(certainty=0.8)))
        in_memory = base.to_dict()
        assert persisted["rules"] == in_memory["rules"]
        assert persisted["episode_count"] == in_memory["episode_count"]

    def test_empty_delta_is_a_no_op(self, store):
        store.merge_experience("public", self._delta())
        version = store.merge_experience(
            "public", {"base_certainty": 0.6, "episode_count": 0, "rules": []}
        )
        assert version == 1

    def test_tenants_are_isolated(self, store):
        store.merge_experience("acme", self._delta())
        data, version = store.load_experience("globex")
        assert version == 0
        assert data["rules"] == []
        data, version = store.load_experience("acme")
        assert version == 1
        assert len(data["rules"]) == 1

    def test_unseen_tenant_loads_empty(self, store):
        data, version = store.load_experience("nobody")
        assert version == 0
        assert data == {"base_certainty": 0.6, "episode_count": 0, "rules": []}

    def test_rule_identity_stable_across_entry_order(self):
        a = rule_identity([["V(a)", "ok", 1], ["V(b)", "conflict", -1]], "R1", "open")
        b = rule_identity([["V(b)", "conflict", -1], ["V(a)", "ok", 1]], "R1", "open")
        assert a == b


class TestTenants:
    def test_provision_and_resolve(self, store):
        key = store.provision_tenant("acme", quota_limit=5)
        assert key.startswith("rk_")
        record = store.resolve_api_key(key)
        assert record is not None
        assert record.tenant_id == "acme"
        assert record.quota_limit == 5
        assert store.resolve_api_key("rk_wrong") is None
        assert store.resolve_api_key("") is None

    def test_key_is_stored_hashed(self, store, tmp_path):
        key = store.provision_tenant("acme")
        # WAL mode: the row may still live in store.db-wal, so scan both.
        raw = b"".join(p.read_bytes() for p in tmp_path.glob("store.db*"))
        assert key.encode() not in raw

    def test_duplicate_tenant_rejected(self, store):
        store.provision_tenant("acme")
        with pytest.raises(ValueError, match="already exists"):
            store.provision_tenant("acme")

    @pytest.mark.parametrize("bad", ["", "a:b", "a/b", "a b", "a\tb"])
    def test_bad_tenant_ids_rejected(self, store, bad):
        with pytest.raises(ValueError):
            store.provision_tenant(bad)

    def test_list_tenants_never_exposes_keys(self, store):
        key = store.provision_tenant("acme")
        [record] = store.list_tenants()
        assert key not in json.dumps(record.to_dict())


class TestHistory:
    def test_record_and_read_back(self, store):
        store.record_history(PUBLIC_TENANT, "u1", "h1", "ok", False, "R1", 0.25, False)
        store.record_history(PUBLIC_TENANT, "u2", "h2", "ok", True, "", 0.01, True)
        rows = store.history_rows(PUBLIC_TENANT)
        assert [r["unit"] for r in rows] == ["u1", "u2"]
        assert rows[0]["top_culprit"] == "R1"
        assert rows[1]["cache_hit"] is True
        assert len(store.history_rows(PUBLIC_TENANT)) == 2

    def test_limit_keeps_most_recent(self, store):
        for i in range(5):
            store.record_history("acme", f"u{i}", f"h{i}", "ok", True, "", 0.0, False)
        rows = store.history_rows("acme", limit=2)
        assert [r["unit"] for r in rows] == ["u3", "u4"]

    def test_snapshot_counts(self, store):
        body, digest = _seal({"unit": "u"})
        store.cache_put("public", "k", body, digest)
        store.provision_tenant("acme")
        store.record_history("acme", "u", "h", "ok", True, "", 0.0, False)
        snap = store.snapshot()
        assert snap["cache_rows"] == 1
        assert snap["tenants"] == 1
        assert snap["history_rows"] == 1
