"""Key rotation, revocation and the v1 -> v2 schema migration.

A tenant's API keys live in ``tenant_keys`` — several digests can be
active at once during a rotation overlap, revocation is terminal, and a
store created before the table existed gets its legacy digest migrated
in on first open.
"""

import sqlite3
import time
from contextlib import closing

import pytest

from repro.store import DiagnosisStore, StoreError
from repro.store.tenants import TenantRegistry


@pytest.fixture
def store(tmp_path):
    with DiagnosisStore(tmp_path / "store.db") as db:
        yield db


class TestRotation:
    def test_rotate_kills_the_old_key_immediately(self, store):
        old = store.provision_tenant("acme")
        assert store.resolve_api_key(old) is not None
        new = store.rotate_key("acme")
        assert new != old
        assert store.resolve_api_key(old) is None
        record = store.resolve_api_key(new)
        assert record is not None and record.tenant_id == "acme"

    def test_overlap_gives_the_old_key_a_grace_window(self, store):
        t = time.time()
        old = store.provision_tenant("acme")
        new = store.rotate_key("acme", overlap=30.0, now=t)
        # Inside the window both keys resolve; past it only the new one.
        assert store.resolve_api_key(old, now=t + 10.0) is not None
        assert store.resolve_api_key(new, now=t + 10.0) is not None
        assert store.resolve_api_key(old, now=t + 31.0) is None
        assert store.resolve_api_key(new, now=t + 31.0) is not None

    def test_rotate_unknown_tenant_raises(self, store):
        with pytest.raises(ValueError):
            store.rotate_key("nope")

    def test_negative_overlap_rejected(self, store):
        store.provision_tenant("acme")
        with pytest.raises(ValueError):
            store.rotate_key("acme", overlap=-1.0)


class TestRevocation:
    def test_revoke_rejects_every_key(self, store):
        old = store.provision_tenant("acme")
        new = store.rotate_key("acme", overlap=3600.0)
        assert store.revoke_keys("acme") == 2
        assert store.resolve_api_key(old) is None
        assert store.resolve_api_key(new) is None

    def test_revoke_is_idempotent(self, store):
        store.provision_tenant("acme")
        assert store.revoke_keys("acme") == 1
        assert store.revoke_keys("acme") == 0

    def test_rotation_unwedges_a_revoked_tenant(self, store):
        store.provision_tenant("acme")
        store.revoke_keys("acme")
        fresh = store.rotate_key("acme")
        assert store.resolve_api_key(fresh) is not None

    def test_registry_ttl_is_the_revocation_latency(self, store):
        """A cached record keeps working until the TTL lapses — after
        that, the registry re-reads the store and sees the revocation."""
        key = store.provision_tenant("acme")
        clock = [0.0]
        registry = TenantRegistry(store, clock=lambda: clock[0])
        assert registry.resolve(key) is not None
        store.revoke_keys("acme")
        assert registry.resolve(key) is not None  # inside the TTL: cached
        clock[0] += 6.0
        assert registry.resolve(key) is None      # TTL lapsed: revoked


def _revoked_flags(store, tenant_id):
    """The ``revoked`` column of each key row the tenant holds."""
    with closing(sqlite3.connect(store.path)) as conn:
        rows = conn.execute(
            "SELECT revoked FROM tenant_keys WHERE tenant_id = ?", (tenant_id,)
        ).fetchall()
    return [revoked for (revoked,) in rows]


def _build_v1_store(path):
    """A store file exactly as the schema-v1 code laid it out."""
    conn = sqlite3.connect(str(path))
    conn.executescript(
        """
        CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
        CREATE TABLE cache_entries (
            namespace TEXT NOT NULL, key TEXT NOT NULL, blob TEXT NOT NULL,
            digest TEXT NOT NULL, seq INTEGER NOT NULL,
            PRIMARY KEY (namespace, key));
        CREATE INDEX cache_entries_seq ON cache_entries (seq);
        CREATE TABLE experience_meta (
            tenant TEXT PRIMARY KEY, version INTEGER NOT NULL,
            episode_count INTEGER NOT NULL, base_certainty REAL NOT NULL);
        CREATE TABLE experience_rules (
            tenant TEXT NOT NULL, rule_key TEXT NOT NULL,
            signature TEXT NOT NULL, component TEXT NOT NULL,
            mode TEXT NOT NULL, certainty REAL NOT NULL,
            occurrences INTEGER NOT NULL, version INTEGER NOT NULL,
            PRIMARY KEY (tenant, rule_key));
        CREATE TABLE tenants (
            tenant_id TEXT PRIMARY KEY, name TEXT NOT NULL,
            key_digest TEXT NOT NULL UNIQUE, quota_limit INTEGER NOT NULL,
            quota_interval REAL NOT NULL, created_at REAL NOT NULL);
        CREATE TABLE history (
            id INTEGER PRIMARY KEY AUTOINCREMENT, tenant TEXT NOT NULL,
            unit TEXT NOT NULL, content_hash TEXT NOT NULL,
            status TEXT NOT NULL, consistent INTEGER NOT NULL,
            top_culprit TEXT NOT NULL, elapsed REAL NOT NULL,
            cache_hit INTEGER NOT NULL, created_at REAL NOT NULL);
        CREATE INDEX history_tenant ON history (tenant);
        INSERT INTO meta (key, value) VALUES ('schema_version', '1');
        """
    )
    import hashlib

    digest = hashlib.sha256(b"rk_legacy").hexdigest()
    conn.execute(
        "INSERT INTO tenants VALUES ('acme', 'Acme', ?, 5, 60.0, 123.0)",
        (digest,),
    )
    blob = '{"unit":"u1"}'
    conn.execute(
        "INSERT INTO cache_entries VALUES ('public', 'k1', ?, ?, 1)",
        (blob, hashlib.sha256(blob.encode()).hexdigest()),
    )
    conn.commit()
    conn.close()


class TestMigration:
    def test_v1_store_migrates_on_open(self, tmp_path):
        path = tmp_path / "legacy.db"
        _build_v1_store(path)
        with DiagnosisStore(path) as store:
            # The legacy digest moved into tenant_keys and still works.
            record = store.resolve_api_key("rk_legacy")
            assert record is not None
            assert record.tenant_id == "acme"
            assert record.quota_limit == 5
            # Pre-existing cache rows got stamped "now", not mass-expired.
            status, _blob = store.cache_get("public", "k1")
            assert status == "hit"
            assert store.retain_cache(3600.0) == 0
            assert _revoked_flags(store, "acme") == [0]

    def test_migration_is_one_way_and_sticky(self, tmp_path):
        path = tmp_path / "legacy.db"
        _build_v1_store(path)
        DiagnosisStore(path).close()
        conn = sqlite3.connect(str(path))
        version = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()[0]
        conn.close()
        assert version == "2"
        # Reopening a migrated store is a no-op, not a re-migration.
        with DiagnosisStore(path) as store:
            assert _revoked_flags(store, "acme") == [0]

    def test_future_schema_versions_are_refused(self, tmp_path):
        path = tmp_path / "future.db"
        DiagnosisStore(path).close()
        conn = sqlite3.connect(str(path))
        conn.execute("UPDATE meta SET value = '99' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError):
            DiagnosisStore(path)
