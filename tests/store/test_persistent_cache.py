"""Tests for the two-tier persistent result cache and the engine's use
of it: write-through, restart warmth, corruption containment, tenant
namespacing."""

import pytest

from repro.service import FleetEngine
from repro.store import cache as store_cache
from repro.service.jobs import JobResult, job_from_spec
from repro.store import (
    DiagnosisStore,
    PersistentResultCache,
    namespaced_key,
)
from tests.helpers import corrupt_cache_row

NETLIST = (
    ".title divider\n"
    "Vin top 0 12\n"
    "Rtop top mid 10k tol=0.05\n"
    "Rbot mid 0 10k tol=0.05\n"
)

FAULTY_SPEC = {"unit": "u1", "netlist_text": NETLIST, "probes": {"mid": 7.5}}
HEALTHY_SPEC = {"unit": "u2", "netlist_text": NETLIST, "probes": {"mid": 6.0}}


def _result(unit="u", key="k"):
    return JobResult(unit=unit, content_hash=key, status="ok")


@pytest.fixture
def store(tmp_path):
    with DiagnosisStore(tmp_path / "store.db") as db:
        yield db


class TestNamespacedKey:
    def test_public_maps_to_bare_key(self):
        assert namespaced_key("abc") == "abc"
        assert namespaced_key("abc", None) == "abc"
        assert namespaced_key("abc", "public") == "abc"

    def test_tenant_prefixes(self):
        assert namespaced_key("abc", "acme") == "acme::abc"


class TestTwoTier:
    def test_miss_populates_both_tiers(self, store):
        cache = PersistentResultCache(store, capacity=4)
        cache.put("k", _result())
        assert store.cache_rows() == 1
        assert cache.get("k") is not None
        assert cache.hits_mem == 1
        assert cache.hits_disk == 0

    def test_disk_hit_after_memory_eviction(self, store):
        cache = PersistentResultCache(store, capacity=1)
        cache.put("a", _result(key="a"))
        cache.put("b", _result(key="b"))  # evicts a from memory, not disk
        assert cache.get("a") is not None
        assert cache.hits_disk == 1
        # The disk hit promoted the entry back into memory.
        assert cache.get("a") is not None
        assert cache.hits_mem == 1

    def test_restart_warm_is_byte_identical(self, tmp_path):
        path = tmp_path / "store.db"
        original = _result(unit="first", key="k")
        with DiagnosisStore(path) as db:
            PersistentResultCache(db, capacity=4).put("k", original)
        with DiagnosisStore(path) as db:
            cache = PersistentResultCache(db, capacity=4)
            restored = cache.get("k")
        assert restored is not None
        assert cache.hits_disk == 1
        assert restored.to_dict() == original.to_dict()

    def test_tampered_disk_row_counts_and_purges(self, store):
        cache = PersistentResultCache(store, capacity=1)
        cache.put("a", _result(key="a"))
        cache.put("b", _result(key="b"))  # a now lives only on disk
        assert corrupt_cache_row(store, "public", "a")
        assert cache.get("a") is None  # corrupt -> counted miss, no crash
        assert cache.corruptions == 1
        assert cache.misses == 1
        assert store.cache_rows() == 1  # the bad row is gone

    def test_disk_capacity_evicts_lru_rows(self, store, monkeypatch):
        monkeypatch.setattr(store_cache, "DISK_CAPACITY", 2)
        cache = PersistentResultCache(store, capacity=1)
        cache.put("a", _result(key="a"))
        cache.put("b", _result(key="b"))
        cache.put("c", _result(key="c"))
        assert cache.disk_evictions == 1
        assert store.cache_rows() == 2
        assert cache.get("a") is None  # the LRU row was dropped

    def test_tenant_keys_do_not_collide(self, store):
        cache = PersistentResultCache(store, capacity=4)
        cache.put(namespaced_key("k", "acme"), _result(unit="acme-unit", key="k"))
        cache.put(namespaced_key("k", "globex"), _result(unit="globex-unit", key="k"))
        assert cache.get(namespaced_key("k", "acme")).unit == "acme-unit"
        assert cache.get(namespaced_key("k", "globex")).unit == "globex-unit"
        assert cache.get("k") is None

    def test_snapshot_reports_tiers(self, store, monkeypatch):
        monkeypatch.setattr(store_cache, "DISK_CAPACITY", 8)
        cache = PersistentResultCache(store, capacity=2)
        cache.put("a", _result(key="a"))
        snap = cache.snapshot()
        assert snap["disk_capacity"] == 8
        assert snap["disk_rows"] == 1
        assert snap["hits_mem"] == 0
        assert snap["hits_disk"] == 0


class TestEngineWithStore:
    def _engine(self, store):
        return FleetEngine(workers=1, executor="serial", store=store)

    def test_restart_warm_engine_serves_from_disk(self, tmp_path):
        path = tmp_path / "store.db"
        job = job_from_spec(FAULTY_SPEC, index=0)
        with DiagnosisStore(path) as db:
            cold = self._engine(db).run_job(job)
        assert not cold.cache_hit
        with DiagnosisStore(path) as db:
            engine = self._engine(db)
            warm = engine.run_job(job_from_spec(FAULTY_SPEC, index=0))
        assert warm.cache_hit
        assert engine.cache.hits_disk == 1
        assert warm.diagnosis == cold.diagnosis

    def test_experience_restored_and_seed_tracked(self, tmp_path):
        path = tmp_path / "store.db"
        confirmed = dict(FAULTY_SPEC, confirm={"component": "Rbot", "mode": "open"})
        jobs = [job_from_spec(confirmed, index=0)]
        with DiagnosisStore(path) as db:
            engine = self._engine(db)
            report = engine.run_batch(jobs)
        assert report.rules_learned >= 1
        with DiagnosisStore(path) as db:
            engine = self._engine(db)
            assert engine.experience.rules, "experience did not survive restart"
            assert engine.experience_seed, "seed baseline missing after restore"
            occurrences = sum(engine.experience_seed.values())
            assert occurrences == sum(r.occurrences for r in engine.experience.rules)

    def test_tenant_runs_are_isolated(self, tmp_path):
        with DiagnosisStore(tmp_path / "store.db") as db:
            engine = self._engine(db)
            first = engine.run_job(job_from_spec(FAULTY_SPEC, index=0), tenant="acme")
            # Same content hash under another tenant must not see the
            # cached result or the learned experience.
            second = engine.run_job(
                job_from_spec(FAULTY_SPEC, index=0), tenant="globex"
            )
            assert not first.cache_hit
            assert not second.cache_hit
            third = engine.run_job(job_from_spec(FAULTY_SPEC, index=0), tenant="acme")
            assert third.cache_hit

    def test_history_recorded_per_tenant(self, tmp_path):
        with DiagnosisStore(tmp_path / "store.db") as db:
            engine = self._engine(db)
            engine.run_job(job_from_spec(FAULTY_SPEC, index=0), tenant="acme")
            engine.run_job(job_from_spec(HEALTHY_SPEC, index=0))
            assert len(db.history_rows("acme")) == 1
            assert len(db.history_rows("public")) == 1
            [row] = db.history_rows("acme")
            assert row["status"] == "ok"
            assert row["consistent"] is False
            assert row["top_culprit"]

    def test_without_store_nothing_is_persisted(self, tmp_path):
        engine = FleetEngine(workers=1, executor="serial")
        res = engine.run_job(job_from_spec(HEALTHY_SPEC, index=0))
        assert res.status == "ok"
        assert engine.store is None
        assert not isinstance(engine.cache, PersistentResultCache)
