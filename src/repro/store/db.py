"""The persistence plane: one sqlite3 file under everything learned.

Everything the fleet accumulates — warm cache entries, the experience
base's symptom→failure rules, tenant identities and the diagnosis
history — used to die with the process.  :class:`DiagnosisStore` makes
that state a durable, versioned artifact on disk (stdlib ``sqlite3``
only), shared by every layer that owns state:

* **result cache rows** — the disk tier beneath
  :class:`~repro.store.cache.PersistentResultCache`: sealed
  ``(blob, sha256 digest)`` pairs keyed ``(namespace, content_hash)``,
  LRU-ordered by an access sequence and evicted by row count.  A row
  whose digest no longer matches its blob is *purged and reported* —
  bit rot degrades the hit rate, it never serves a poisoned result;
* **experience rules** — a versioned, per-tenant
  :class:`~repro.core.learning.ExperienceBase` projection.  Deltas
  merge with the exact noisy-or semantics of
  :meth:`ExperienceBase.merge` (``1 - (1-c1)(1-c2)``, occurrence
  counts summed) inside one write transaction, and every merge bumps
  the tenant's experience version — replicas can tell "restored state"
  from "new evidence";
* **tenants** — API-key identities (sha256 digests only; the plain
  key is printed once at provisioning and never stored) with
  per-tenant request quotas;
* **history** — one row per diagnosis outcome, the raw material the
  fleet-health report (:mod:`repro.store.reports`) folds into
  per-status counts, top culprits and latency percentiles.

Concurrency: the store opens in WAL mode so a crashed writer replays
cleanly on the next open (kill -9 mid-write loses at most the
uncommitted transaction) and replica *processes* sharing one file
coexist — WAL allows concurrent readers alongside a single writer,
with :data:`BUSY_TIMEOUT` absorbing write collisions.  In-process, one
connection is shared behind an :class:`threading.RLock`; every public
method is safe to call from the server's executor threads.
"""

from __future__ import annotations

import hashlib
import json
import secrets
import sqlite3
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.learning import rule_identity

__all__ = ["DiagnosisStore", "StoreError", "TenantRecord", "PUBLIC_TENANT"]

#: The namespace unauthenticated traffic lands in.  Serving without a
#: store (or without an API key) behaves exactly as before; the public
#: tenant just gives that traffic a durable home too.
PUBLIC_TENANT = "public"

#: Seconds a connection waits on another writer's lock before failing.
BUSY_TIMEOUT = 5.0

#: Tokens one admitted request takes from its tenant's quota bucket.
QUOTA_COST = 1.0

_SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS cache_entries (
    namespace  TEXT NOT NULL,
    key        TEXT NOT NULL,
    blob       TEXT NOT NULL,
    digest     TEXT NOT NULL,
    seq        INTEGER NOT NULL,
    created_at REAL NOT NULL DEFAULT 0,
    PRIMARY KEY (namespace, key)
);
CREATE INDEX IF NOT EXISTS cache_entries_seq ON cache_entries (seq);
CREATE TABLE IF NOT EXISTS experience_meta (
    tenant         TEXT PRIMARY KEY,
    version        INTEGER NOT NULL,
    episode_count  INTEGER NOT NULL,
    base_certainty REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS experience_rules (
    tenant      TEXT NOT NULL,
    rule_key    TEXT NOT NULL,
    signature   TEXT NOT NULL,
    component   TEXT NOT NULL,
    mode        TEXT NOT NULL,
    certainty   REAL NOT NULL,
    occurrences INTEGER NOT NULL,
    version     INTEGER NOT NULL,
    PRIMARY KEY (tenant, rule_key)
);
CREATE TABLE IF NOT EXISTS tenants (
    tenant_id      TEXT PRIMARY KEY,
    name           TEXT NOT NULL,
    key_digest     TEXT NOT NULL UNIQUE,
    quota_limit    INTEGER NOT NULL,
    quota_interval REAL NOT NULL,
    created_at     REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS history (
    id           INTEGER PRIMARY KEY AUTOINCREMENT,
    tenant       TEXT NOT NULL,
    unit         TEXT NOT NULL,
    content_hash TEXT NOT NULL,
    status       TEXT NOT NULL,
    consistent   INTEGER NOT NULL,
    top_culprit  TEXT NOT NULL,
    elapsed      REAL NOT NULL,
    cache_hit    INTEGER NOT NULL,
    created_at   REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS history_tenant ON history (tenant);
CREATE INDEX IF NOT EXISTS history_created ON history (created_at);
CREATE TABLE IF NOT EXISTS tenant_keys (
    digest     TEXT PRIMARY KEY,
    tenant_id  TEXT NOT NULL,
    created_at REAL NOT NULL,
    not_after  REAL NOT NULL DEFAULT 0,
    revoked    INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS tenant_keys_tenant ON tenant_keys (tenant_id);
CREATE TABLE IF NOT EXISTS quota_buckets (
    tenant     TEXT PRIMARY KEY,
    tokens     REAL NOT NULL,
    updated_at REAL NOT NULL
);
"""


class StoreError(RuntimeError):
    """The store file is unusable (bad schema, undecodable rows, ...)."""


class TenantRecord:
    """One provisioned tenant, as read back from the store (no key)."""

    def __init__(
        self,
        tenant_id: str,
        name: str,
        quota_limit: int,
        quota_interval: float,
        created_at: float,
    ) -> None:
        self.tenant_id = tenant_id
        self.name = name
        self.quota_limit = int(quota_limit)
        self.quota_interval = float(quota_interval)
        self.created_at = float(created_at)

    def to_dict(self) -> Dict:
        return {
            "tenant_id": self.tenant_id,
            "name": self.name,
            "quota_limit": self.quota_limit,
            "quota_interval": self.quota_interval,
            "created_at": self.created_at,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TenantRecord({self.tenant_id!r}, quota={self.quota_limit}/{self.quota_interval:g}s)"


def _hash_key(api_key: str) -> str:
    return hashlib.sha256(api_key.encode()).hexdigest()


class DiagnosisStore:
    """The sqlite-backed persistence plane shared by cache/experience/tenants."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = str(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            self.path, check_same_thread=False, timeout=BUSY_TIMEOUT
        )
        self._conn.isolation_level = None  # explicit transactions only
        with self._lock:
            cur = self._conn.cursor()
            # Must precede table creation to take effect; files created
            # before this setting simply no-op on incremental_vacuum.
            cur.execute("PRAGMA auto_vacuum=INCREMENTAL")
            cur.execute("PRAGMA journal_mode=WAL")
            cur.execute("PRAGMA synchronous=NORMAL")
            cur.execute(f"PRAGMA busy_timeout={int(BUSY_TIMEOUT * 1000)}")
            # executescript manages its own transaction (and commits any
            # pending one), so the schema is not wrapped in BEGIN here.
            cur.executescript(_SCHEMA)
            cur.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(_SCHEMA_VERSION),),
            )
            self._migrate(cur)

    def _migrate(self, cur: sqlite3.Cursor) -> None:
        """Upgrade an existing store file in place (v1 → v2).

        v2 moves key material into ``tenant_keys`` (several digests may
        be active per tenant, each with its own expiry/revocation) and
        adds ``quota_buckets`` plus a ``created_at`` column on cache
        rows so age-based retention has something to bite on.
        """
        row = cur.execute("SELECT value FROM meta WHERE key = 'schema_version'").fetchone()
        version = int(row[0]) if row else _SCHEMA_VERSION
        if version > _SCHEMA_VERSION:
            raise StoreError(
                f"store {self.path!r} has schema v{version}; this build reads up to "
                f"v{_SCHEMA_VERSION}"
            )
        if version == _SCHEMA_VERSION:
            return
        columns = {r[1] for r in cur.execute("PRAGMA table_info(cache_entries)")}
        cur.execute("BEGIN IMMEDIATE")
        try:
            if "created_at" not in columns:
                cur.execute(
                    "ALTER TABLE cache_entries ADD COLUMN created_at REAL NOT NULL DEFAULT 0"
                )
            # Pre-migration rows carry no timestamp; stamping them "now"
            # starts their retention clock at the upgrade, which is the
            # conservative choice (never mass-expire a warm cache).
            now = time.time()
            cur.execute(
                "UPDATE cache_entries SET created_at = ? WHERE created_at = 0", (now,)
            )
            cur.execute(
                "INSERT OR IGNORE INTO tenant_keys "
                "(digest, tenant_id, created_at, not_after, revoked) "
                "SELECT key_digest, tenant_id, created_at, 0, 0 FROM tenants"
            )
            cur.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(_SCHEMA_VERSION),),
            )
            cur.execute("COMMIT")
        except sqlite3.DatabaseError:
            cur.execute("ROLLBACK")
            raise

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "DiagnosisStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _next_seq(self, cur: sqlite3.Cursor) -> int:
        row = cur.execute("SELECT COALESCE(MAX(seq), 0) FROM cache_entries").fetchone()
        return int(row[0]) + 1

    # ------------------------------------------------------------------
    # Cache rows (the disk tier)
    # ------------------------------------------------------------------
    def cache_get(self, namespace: str, key: str) -> Tuple[str, Optional[str]]:
        """Look one sealed row up: ``(status, blob)``.

        ``status`` is ``"hit"`` (the blob's digest verified), ``"miss"``
        (no such row) or ``"corrupt"`` (the stored digest no longer
        matches — the row has been purged; the caller counts it).  A hit
        refreshes the row's LRU sequence.
        """
        with self._lock:
            cur = self._conn.cursor()
            try:
                row = cur.execute(
                    "SELECT blob, digest FROM cache_entries WHERE namespace = ? AND key = ?",
                    (namespace, key),
                ).fetchone()
            except sqlite3.DatabaseError:
                return "corrupt", None
            if row is None:
                return "miss", None
            blob, digest = row
            if hashlib.sha256(blob.encode()).hexdigest() != digest:
                cur.execute("BEGIN IMMEDIATE")
                cur.execute(
                    "DELETE FROM cache_entries WHERE namespace = ? AND key = ?",
                    (namespace, key),
                )
                cur.execute("COMMIT")
                return "corrupt", None
            cur.execute("BEGIN IMMEDIATE")
            cur.execute(
                "UPDATE cache_entries SET seq = ? WHERE namespace = ? AND key = ?",
                (self._next_seq(cur), namespace, key),
            )
            cur.execute("COMMIT")
            return "hit", blob

    def cache_put(
        self, namespace: str, key: str, blob: str, digest: str, max_rows: int = 0
    ) -> int:
        """Write one sealed row through; returns rows evicted for space.

        ``max_rows`` bounds the *whole table* (all namespaces — the disk
        budget is per store file, not per tenant); 0 means unbounded.
        Eviction is LRU by the access sequence ``cache_get`` refreshes.
        """
        with self._lock:
            cur = self._conn.cursor()
            cur.execute("BEGIN IMMEDIATE")
            try:
                cur.execute(
                    "INSERT OR REPLACE INTO cache_entries "
                    "(namespace, key, blob, digest, seq, created_at) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (namespace, key, blob, digest, self._next_seq(cur), time.time()),
                )
                evicted = 0
                if max_rows > 0:
                    count = int(
                        cur.execute("SELECT COUNT(*) FROM cache_entries").fetchone()[0]
                    )
                    overflow = count - max_rows
                    if overflow > 0:
                        cur.execute(
                            "DELETE FROM cache_entries WHERE rowid IN ("
                            "SELECT rowid FROM cache_entries ORDER BY seq ASC LIMIT ?)",
                            (overflow,),
                        )
                        evicted = overflow
                cur.execute("COMMIT")
            except sqlite3.DatabaseError:
                cur.execute("ROLLBACK")
                raise
            return evicted

    def cache_rows(self) -> int:
        with self._lock:
            row = self._conn.execute("SELECT COUNT(*) FROM cache_entries").fetchone()
            return int(row[0])

    # ------------------------------------------------------------------
    # Experience (versioned, per tenant)
    # ------------------------------------------------------------------
    def experience_version(self, tenant: str) -> int:
        """The tenant's experience version (0 = nothing persisted yet)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT version FROM experience_meta WHERE tenant = ?", (tenant,)
            ).fetchone()
            return int(row[0]) if row else 0

    def load_experience(self, tenant: str) -> Tuple[Dict, int]:
        """The tenant's persisted base as an ``ExperienceBase.to_dict``
        payload, plus its version.  An unseen tenant loads empty at
        version 0."""
        with self._lock:
            meta = self._conn.execute(
                "SELECT version, episode_count, base_certainty "
                "FROM experience_meta WHERE tenant = ?",
                (tenant,),
            ).fetchone()
            if meta is None:
                return {"base_certainty": 0.6, "episode_count": 0, "rules": []}, 0
            version, episodes, base_certainty = meta
            rules = []
            for signature, component, mode, certainty, occurrences in self._conn.execute(
                "SELECT signature, component, mode, certainty, occurrences "
                "FROM experience_rules WHERE tenant = ? ORDER BY rule_key",
                (tenant,),
            ):
                try:
                    entries = json.loads(signature)
                except json.JSONDecodeError as exc:
                    raise StoreError(
                        f"undecodable experience signature for {tenant!r}: {exc}"
                    ) from None
                rules.append(
                    {
                        "signature": entries,
                        "component": component,
                        "mode": mode,
                        "certainty": float(certainty),
                        "occurrences": int(occurrences),
                    }
                )
            return {
                "base_certainty": float(base_certainty),
                "episode_count": int(episodes),
                "rules": rules,
            }, int(version)

    def merge_experience(self, tenant: str, delta: Dict) -> int:
        """Fold an experience delta in with noisy-or semantics; returns
        the tenant's new version.

        ``delta`` is an :meth:`ExperienceBase.to_dict` payload (often a
        single batch's worth of confirmations).  Matching rules combine
        certainty ``1 - (1-c1)(1-c2)`` and sum occurrences — byte-for-
        byte the semantics of :meth:`ExperienceBase.merge` — inside one
        transaction, so a crash mid-merge leaves the previous version
        intact.  An empty delta is a no-op (the version does not bump).
        """
        rules = delta.get("rules") or []
        episodes = int(delta.get("episode_count", 0))
        if not rules and not episodes:
            return self.experience_version(tenant)
        base_certainty = float(delta.get("base_certainty", 0.6))
        with self._lock:
            cur = self._conn.cursor()
            cur.execute("BEGIN IMMEDIATE")
            try:
                meta = cur.execute(
                    "SELECT version, episode_count FROM experience_meta WHERE tenant = ?",
                    (tenant,),
                ).fetchone()
                version = (int(meta[0]) if meta else 0) + 1
                episode_count = (int(meta[1]) if meta else 0) + episodes
                for entry in rules:
                    signature = entry.get("signature") or []
                    component = str(entry.get("component", ""))
                    mode = str(entry.get("mode", ""))
                    certainty = float(entry.get("certainty", base_certainty))
                    occurrences = int(entry.get("occurrences", 1))
                    key = rule_identity(signature, component, mode)
                    row = cur.execute(
                        "SELECT certainty, occurrences FROM experience_rules "
                        "WHERE tenant = ? AND rule_key = ?",
                        (tenant, key),
                    ).fetchone()
                    if row is not None:
                        merged_certainty = 1.0 - (1.0 - float(row[0])) * (1.0 - certainty)
                        cur.execute(
                            "UPDATE experience_rules SET certainty = ?, occurrences = ?, "
                            "version = ? WHERE tenant = ? AND rule_key = ?",
                            (merged_certainty, int(row[1]) + occurrences, version, tenant, key),
                        )
                    else:
                        cur.execute(
                            "INSERT INTO experience_rules (tenant, rule_key, signature, "
                            "component, mode, certainty, occurrences, version) "
                            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                            (
                                tenant,
                                key,
                                json.dumps(
                                    [[str(p), str(b), int(d)] for p, b, d in signature],
                                    separators=(",", ":"),
                                ),
                                component,
                                mode,
                                certainty,
                                occurrences,
                                version,
                            ),
                        )
                cur.execute(
                    "INSERT INTO experience_meta (tenant, version, episode_count, "
                    "base_certainty) VALUES (?, ?, ?, ?) "
                    "ON CONFLICT(tenant) DO UPDATE SET version = ?, episode_count = ?",
                    (tenant, version, episode_count, base_certainty, version, episode_count),
                )
                cur.execute("COMMIT")
            except sqlite3.DatabaseError:
                cur.execute("ROLLBACK")
                raise
            return version

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------
    def provision_tenant(
        self,
        tenant_id: str,
        name: str = "",
        quota_limit: int = 0,
        quota_interval: float = 60.0,
    ) -> str:
        """Create a tenant and return its API key (shown exactly once).

        Only the key's sha256 digest is stored; losing the key means
        re-provisioning.  ``quota_limit`` 0 means unlimited.
        """
        if not tenant_id:
            raise ValueError("tenant_id must be non-empty")
        if ":" in tenant_id or "/" in tenant_id or any(c.isspace() for c in tenant_id):
            # ':' would collide with cache-key namespacing, '/' with the
            # report URL path; whitespace just invites header mangling.
            raise ValueError("tenant_id must not contain ':', '/' or whitespace")
        if quota_limit < 0:
            raise ValueError("quota_limit must be non-negative")
        if quota_interval <= 0:
            raise ValueError("quota_interval must be positive")
        key = f"rk_{secrets.token_hex(16)}"
        now = time.time()
        with self._lock:
            cur = self._conn.cursor()
            cur.execute("BEGIN IMMEDIATE")
            try:
                cur.execute(
                    "INSERT INTO tenants (tenant_id, name, key_digest, quota_limit, "
                    "quota_interval, created_at) VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        tenant_id,
                        name or tenant_id,
                        _hash_key(key),
                        int(quota_limit),
                        float(quota_interval),
                        now,
                    ),
                )
                cur.execute(
                    "INSERT INTO tenant_keys (digest, tenant_id, created_at) "
                    "VALUES (?, ?, ?)",
                    (_hash_key(key), tenant_id, now),
                )
                cur.execute("COMMIT")
            except sqlite3.IntegrityError:
                cur.execute("ROLLBACK")
                raise ValueError(f"tenant {tenant_id!r} already exists") from None
            except sqlite3.DatabaseError:
                cur.execute("ROLLBACK")
                raise
        return key

    def resolve_api_key(
        self, api_key: str, now: Optional[float] = None
    ) -> Optional[TenantRecord]:
        """The tenant owning ``api_key``, or None (never raises on junk).

        Keys live in ``tenant_keys`` — several digests may be active for
        one tenant during a rotation overlap.  A digest that has been
        revoked, or whose ``not_after`` has passed, resolves to None
        exactly as an unknown key does.
        """
        if not api_key:
            return None
        if now is None:
            now = time.time()
        with self._lock:
            row = self._conn.execute(
                "SELECT t.tenant_id, t.name, t.quota_limit, t.quota_interval, "
                "t.created_at, k.not_after, k.revoked "
                "FROM tenant_keys k JOIN tenants t ON t.tenant_id = k.tenant_id "
                "WHERE k.digest = ?",
                (_hash_key(api_key),),
            ).fetchone()
        if row is None:
            return None
        not_after, revoked = float(row[5]), int(row[6])
        if revoked or (not_after > 0 and now >= not_after):
            return None
        return TenantRecord(*row[:5])

    def rotate_key(
        self,
        tenant_id: str,
        overlap: float = 0.0,
        now: Optional[float] = None,
    ) -> str:
        """Mint a fresh API key for ``tenant_id`` and expire the old ones.

        Existing active digests get ``not_after = now + overlap`` (0 by
        default — the old key dies immediately; a positive overlap gives
        callers a grace window to swap credentials).  The new key is
        returned exactly once; only its digest is stored.  One
        transaction, so a crash mid-rotation never leaves the tenant
        keyless.
        """
        if overlap < 0:
            raise ValueError("overlap must be non-negative")
        if now is None:
            now = time.time()
        key = f"rk_{secrets.token_hex(16)}"
        with self._lock:
            cur = self._conn.cursor()
            cur.execute("BEGIN IMMEDIATE")
            try:
                exists = cur.execute(
                    "SELECT 1 FROM tenants WHERE tenant_id = ?", (tenant_id,)
                ).fetchone()
                if exists is None:
                    cur.execute("ROLLBACK")
                    raise ValueError(f"no such tenant {tenant_id!r}")
                cur.execute(
                    "UPDATE tenant_keys SET not_after = ? WHERE tenant_id = ? "
                    "AND revoked = 0 AND (not_after = 0 OR not_after > ?)",
                    (now + overlap, tenant_id, now + overlap),
                )
                cur.execute(
                    "INSERT INTO tenant_keys (digest, tenant_id, created_at) "
                    "VALUES (?, ?, ?)",
                    (_hash_key(key), tenant_id, now),
                )
                cur.execute(
                    "UPDATE tenants SET key_digest = ? WHERE tenant_id = ?",
                    (_hash_key(key), tenant_id),
                )
                cur.execute("COMMIT")
            except sqlite3.DatabaseError:
                cur.execute("ROLLBACK")
                raise
        return key

    def revoke_keys(self, tenant_id: str) -> int:
        """Revoke every key the tenant holds; returns how many died.

        Revocation is terminal (rotation un-wedges a revoked tenant by
        minting a fresh key).  Callers already holding a cached
        :class:`TenantRecord` keep working until their registry TTL
        lapses — that TTL is the advertised revocation latency.
        """
        with self._lock:
            cur = self._conn.cursor()
            cur.execute("BEGIN IMMEDIATE")
            try:
                cur.execute(
                    "UPDATE tenant_keys SET revoked = 1 "
                    "WHERE tenant_id = ? AND revoked = 0",
                    (tenant_id,),
                )
                revoked = cur.rowcount
                cur.execute("COMMIT")
            except sqlite3.DatabaseError:
                cur.execute("ROLLBACK")
                raise
        return int(revoked)

    def get_tenant(self, tenant_id: str) -> Optional[TenantRecord]:
        with self._lock:
            row = self._conn.execute(
                "SELECT tenant_id, name, quota_limit, quota_interval, created_at "
                "FROM tenants WHERE tenant_id = ?",
                (tenant_id,),
            ).fetchone()
        return TenantRecord(*row) if row else None

    def list_tenants(self) -> List[TenantRecord]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT tenant_id, name, quota_limit, quota_interval, created_at "
                "FROM tenants ORDER BY tenant_id"
            ).fetchall()
        return [TenantRecord(*row) for row in rows]

    # ------------------------------------------------------------------
    # History (the fleet-health report's raw material)
    # ------------------------------------------------------------------
    def record_history(
        self,
        tenant: str,
        unit: str,
        content_hash: str,
        status: str,
        consistent: bool,
        top_culprit: str,
        elapsed: float,
        cache_hit: bool,
    ) -> None:
        with self._lock:
            cur = self._conn.cursor()
            cur.execute("BEGIN IMMEDIATE")
            try:
                cur.execute(
                    "INSERT INTO history (tenant, unit, content_hash, status, consistent, "
                    "top_culprit, elapsed, cache_hit, created_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        tenant,
                        unit,
                        content_hash,
                        status,
                        1 if consistent else 0,
                        top_culprit,
                        float(elapsed),
                        1 if cache_hit else 0,
                        time.time(),
                    ),
                )
                cur.execute("COMMIT")
            except sqlite3.DatabaseError:
                cur.execute("ROLLBACK")
                raise

    def history_rows(self, tenant: str, limit: int = 0) -> List[Dict]:
        """The tenant's diagnosis history, oldest first."""
        sql = (
            "SELECT unit, content_hash, status, consistent, top_culprit, elapsed, "
            "cache_hit, created_at FROM history WHERE tenant = ? ORDER BY id"
        )
        args: Tuple = (tenant,)
        if limit > 0:
            sql += " DESC LIMIT ?"
            args = (tenant, limit)
        with self._lock:
            rows = self._conn.execute(sql, args).fetchall()
        if limit > 0:
            rows = list(reversed(rows))
        return [
            {
                "unit": unit,
                "content_hash": content_hash,
                "status": status,
                "consistent": bool(consistent),
                "top_culprit": top_culprit,
                "elapsed": float(elapsed),
                "cache_hit": bool(cache_hit),
                "created_at": float(created_at),
            }
            for (unit, content_hash, status, consistent,
                 top_culprit, elapsed, cache_hit, created_at) in rows
        ]

    # ------------------------------------------------------------------
    # Quota buckets (one shared token bucket per tenant, all replicas)
    # ------------------------------------------------------------------
    def quota_debit(
        self,
        tenant_id: str,
        capacity: float,
        interval: float,
        now: Optional[float] = None,
    ) -> Tuple[bool, float, float]:
        """Atomically refill and debit one tenant's token bucket.

        The bucket holds at most ``capacity`` tokens and refills at
        ``capacity / interval`` tokens per second; a request costs
        :data:`QUOTA_COST`.  Refill and debit happen in a single
        ``BEGIN IMMEDIATE`` transaction, so every replica sharing the
        store file sees one budget and a crash between refill and debit
        never double-charges (the transaction either committed or it
        didn't).

        Returns ``(allowed, retry_after, remaining)`` — ``retry_after``
        is the float seconds until one token accrues at the refill rate
        (0.0 when admitted).
        """
        if capacity <= 0 or interval <= 0:
            return True, 0.0, -1.0
        if now is None:
            now = time.time()
        rate = float(capacity) / float(interval)
        with self._lock:
            cur = self._conn.cursor()
            cur.execute("BEGIN IMMEDIATE")
            try:
                row = cur.execute(
                    "SELECT tokens, updated_at FROM quota_buckets WHERE tenant = ?",
                    (tenant_id,),
                ).fetchone()
                if row is None:
                    tokens = float(capacity)
                else:
                    elapsed = max(0.0, now - float(row[1]))
                    tokens = min(float(capacity), float(row[0]) + elapsed * rate)
                if tokens >= QUOTA_COST:
                    tokens -= QUOTA_COST
                    allowed, retry_after = True, 0.0
                else:
                    allowed, retry_after = False, (QUOTA_COST - tokens) / rate
                cur.execute(
                    "INSERT OR REPLACE INTO quota_buckets (tenant, tokens, updated_at) "
                    "VALUES (?, ?, ?)",
                    (tenant_id, tokens, now),
                )
                cur.execute("COMMIT")
            except sqlite3.DatabaseError:
                cur.execute("ROLLBACK")
                raise
        return allowed, retry_after, tokens

    def quota_levels(self) -> Dict[str, float]:
        """Current token level per tenant bucket (metrics fodder)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT tenant, tokens FROM quota_buckets ORDER BY tenant"
            ).fetchall()
        return {tenant: round(float(tokens), 3) for tenant, tokens in rows}

    # ------------------------------------------------------------------
    # Maintenance primitives (driven by repro.store.lifecycle)
    # ------------------------------------------------------------------
    def checkpoint(self) -> Tuple[int, int, int]:
        """Run a ``TRUNCATE`` WAL checkpoint (+ incremental vacuum); ``(busy, log, done)``.

        ``busy`` is 1 when a concurrent reader pinned the WAL and the
        checkpoint could not finish — callers back off and retry rather
        than blocking the writer.  ``log``/``done`` are total and
        checkpointed WAL frames.
        """
        with self._lock:
            cur = self._conn.cursor()
            cur.execute("PRAGMA incremental_vacuum")
            row = cur.execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchone()
        busy, log, done = (int(v) if v is not None else 0 for v in row)
        return busy, log, done

    def wal_size(self) -> int:
        """Bytes currently sitting in the WAL file (0 when fully checkpointed)."""
        try:
            return Path(self.path + "-wal").stat().st_size
        except OSError:
            return 0

    def retain_history(
        self,
        max_age: float = 0.0,
        max_rows: int = 0,
        batch: int = 500,
        now: Optional[float] = None,
    ) -> int:
        """Delete expired/overflow history rows, at most ``batch`` per call.

        Age and row-count windows compose (0 disables either).  The
        bounded batch keeps each delete transaction short so a live
        writer never stalls behind retention; the lifecycle loop calls
        this repeatedly until it returns less than a full batch.
        """
        if batch <= 0:
            raise ValueError("batch must be positive")
        if now is None:
            now = time.time()
        deleted = 0
        with self._lock:
            cur = self._conn.cursor()
            cur.execute("BEGIN IMMEDIATE")
            try:
                if max_age > 0:
                    cur.execute(
                        "DELETE FROM history WHERE id IN ("
                        "SELECT id FROM history WHERE created_at < ? ORDER BY id LIMIT ?)",
                        (now - max_age, batch),
                    )
                    deleted += cur.rowcount
                if max_rows > 0 and deleted < batch:
                    total = int(cur.execute("SELECT COUNT(*) FROM history").fetchone()[0])
                    overflow = min(total - max_rows, batch - deleted)
                    if overflow > 0:
                        cur.execute(
                            "DELETE FROM history WHERE id IN ("
                            "SELECT id FROM history ORDER BY id LIMIT ?)",
                            (overflow,),
                        )
                        deleted += cur.rowcount
                cur.execute("COMMIT")
            except sqlite3.DatabaseError:
                cur.execute("ROLLBACK")
                raise
        return deleted

    def retain_cache(
        self, max_age: float, batch: int = 500, now: Optional[float] = None
    ) -> int:
        """Delete cache rows older than ``max_age`` seconds (bounded batch).

        Row-count pressure is already handled inline by ``cache_put``;
        this is the age window for stores whose working set goes cold.
        """
        if max_age <= 0:
            return 0
        if batch <= 0:
            raise ValueError("batch must be positive")
        if now is None:
            now = time.time()
        with self._lock:
            cur = self._conn.cursor()
            cur.execute("BEGIN IMMEDIATE")
            try:
                cur.execute(
                    "DELETE FROM cache_entries WHERE rowid IN ("
                    "SELECT rowid FROM cache_entries WHERE created_at < ? "
                    "ORDER BY seq LIMIT ?)",
                    (now - max_age, batch),
                )
                deleted = cur.rowcount
                cur.execute("COMMIT")
            except sqlite3.DatabaseError:
                cur.execute("ROLLBACK")
                raise
        return int(deleted)

    def backup(self, dest: Union[str, Path], pages: int = 256) -> Dict:
        """Copy the live store to ``dest`` via the sqlite3 backup API.

        The backup proceeds in ``pages``-sized steps so concurrent
        writers keep making progress (sqlite restarts the copy if the
        source changes under it); the result is a consistent snapshot —
        a store file that opens clean and serves byte-identical cache
        hits.  Refuses to overwrite the live file itself.
        """
        dest = str(dest)
        if Path(dest).resolve() == Path(self.path).resolve():
            raise ValueError("backup destination must differ from the live store")
        with self._lock:
            out = sqlite3.connect(dest)
            try:
                self._conn.backup(out, pages=pages)
                out.commit()
            finally:
                out.close()
        size = Path(dest).stat().st_size
        return {"dest": dest, "bytes": int(size)}

    def integrity_check(self) -> str:
        """sqlite's own verdict on the file: ``"ok"`` or the first error."""
        with self._lock:
            row = self._conn.execute("PRAGMA integrity_check(1)").fetchone()
        return str(row[0]) if row else "ok"

    def scrub(self) -> Dict:
        """Re-verify every cache seal plus the sqlite structure itself.

        Walks all cache rows, recomputes each blob's sha256 against the
        stored digest, purges mismatches (bit rot never serves a
        poisoned result) and returns
        ``{"checked", "purged", "integrity"}``.  Purging happens in one
        transaction after the scan so the read pass holds no write lock.
        """
        bad: List[Tuple[str, str]] = []
        checked = 0
        with self._lock:
            for namespace, key, blob, digest in self._conn.execute(
                "SELECT namespace, key, blob, digest FROM cache_entries"
            ):
                checked += 1
                if hashlib.sha256(blob.encode()).hexdigest() != digest:
                    bad.append((namespace, key))
            if bad:
                cur = self._conn.cursor()
                cur.execute("BEGIN IMMEDIATE")
                try:
                    for namespace, key in bad:
                        cur.execute(
                            "DELETE FROM cache_entries WHERE namespace = ? AND key = ?",
                            (namespace, key),
                        )
                    cur.execute("COMMIT")
                except sqlite3.DatabaseError:
                    cur.execute("ROLLBACK")
                    raise
        return {
            "checked": checked,
            "purged": len(bad),
            "integrity": self.integrity_check(),
        }

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """Occupancy overview (the server folds this into ``/metrics``)."""
        with self._lock:
            cache_rows = int(
                self._conn.execute("SELECT COUNT(*) FROM cache_entries").fetchone()[0]
            )
            rule_rows = int(
                self._conn.execute("SELECT COUNT(*) FROM experience_rules").fetchone()[0]
            )
            tenants = int(self._conn.execute("SELECT COUNT(*) FROM tenants").fetchone()[0])
            history = int(self._conn.execute("SELECT COUNT(*) FROM history").fetchone()[0])
            buckets = int(
                self._conn.execute("SELECT COUNT(*) FROM quota_buckets").fetchone()[0]
            )
        return {
            "path": self.path,
            "cache_rows": cache_rows,
            "experience_rules": rule_rows,
            "tenants": tenants,
            "history_rows": history,
            "quota_buckets": buckets,
            "wal_bytes": self.wal_size(),
        }
