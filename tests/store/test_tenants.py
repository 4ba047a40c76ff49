"""Tests for the API-key registry cache and the tenant fleet-health
report."""

import pytest

from repro.store import (
    DiagnosisStore,
    TenantRegistry,
    build_report,
)


@pytest.fixture
def store(tmp_path):
    with DiagnosisStore(tmp_path / "store.db") as db:
        yield db


class _Clock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class TestTenantRegistry:
    def test_resolves_and_caches(self, store):
        key = store.provision_tenant("acme")
        clock = _Clock()
        registry = TenantRegistry(store, clock=clock)
        assert registry.resolve(key).tenant_id == "acme"
        assert registry.resolve("rk_junk") is None
        # Within the TTL a re-resolve never hits sqlite again: closing
        # the store under the registry proves the answer came from cache.
        store.close()
        assert registry.resolve(key).tenant_id == "acme"
        assert registry.resolve("rk_junk") is None

    def test_ttl_expiry_rereads(self, store):
        key = store.provision_tenant("acme")
        clock = _Clock()
        registry = TenantRegistry(store, clock=clock)
        assert registry.resolve(key) is not None
        clock.now += 6.0
        assert registry.resolve(key) is not None  # re-read, still there



class TestBuildReport:
    def test_unknown_tenant_is_none(self, store):
        assert build_report(store, "nobody") is None

    def test_report_reflects_history(self, store):
        store.provision_tenant("acme", quota_limit=10, quota_interval=30.0)
        store.record_history("acme", "u1", "h1", "ok", False, "R1", 0.2, False)
        store.record_history("acme", "u2", "h2", "ok", False, "R1", 0.3, False)
        store.record_history("acme", "u3", "h3", "ok", True, "", 0.1, False)
        store.record_history("acme", "u4", "h4", "error", False, "", 0.0, False)
        store.record_history("acme", "u1", "h1", "ok", False, "R1", 0.0, True)
        report = build_report(store, "acme")
        assert report["tenant"] == "acme"
        assert report["quota"] == {"limit": 10, "interval": 30.0}
        history = report["history"]
        assert history["total"] == 5
        assert history["faulty"] == 3
        assert history["consistent"] == 1
        assert history["error_rate"] == pytest.approx(0.2)
        assert history["cache_hit_rate"] == pytest.approx(0.2)
        assert report["top_culprits"][0] == {"component": "R1", "count": 3}
        assert report["latency_ms"]["executed"] == 4
        assert report["latency_ms"]["p50"] > 0

    def test_latency_percentiles_follow_the_telemetry_rule(self, store):
        """Executed latencies [1, 2, 3, 4] ms: nearest rank gives p50 = 2."""
        from repro.service.telemetry import percentile

        store.provision_tenant("acme")
        for i, elapsed in enumerate((0.004, 0.001, 0.003, 0.002)):
            store.record_history("acme", f"u{i}", f"h{i}", "ok", False, "R1", elapsed, False)
        store.record_history("acme", "u9", "h9", "ok", False, "R1", 0.5, True)  # cache hit
        latency = build_report(store, "acme")["latency_ms"]
        assert latency == {"executed": 4, "p50": 2.0, "p95": 4.0, "p99": 4.0}
        assert latency["p50"] == percentile([1.0, 2.0, 3.0, 4.0], 0.50)

    def test_no_executed_runs_reads_zero(self, store):
        store.provision_tenant("acme")
        store.record_history("acme", "u1", "h1", "ok", False, "R1", 0.5, True)
        latency = build_report(store, "acme")["latency_ms"]
        assert latency == {"executed": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_limit_narrows_the_window(self, store):
        store.provision_tenant("acme")
        for i in range(4):
            store.record_history("acme", f"u{i}", f"h{i}", "ok", True, "", 0.0, False)
        store.record_history("acme", "u-err", "h", "error", False, "", 0.0, False)
        report = build_report(store, "acme", limit=1)
        assert report["history"]["window"] == 1
        assert report["history"]["error_rate"] == 1.0

    def test_report_includes_experience_version(self, store):
        store.provision_tenant("acme")
        store.merge_experience(
            "acme",
            {
                "base_certainty": 0.6,
                "episode_count": 1,
                "rules": [
                    {
                        "signature": [["V(out)", "conflict", -1]],
                        "component": "R1",
                        "mode": "open",
                        "certainty": 0.6,
                        "occurrences": 1,
                    }
                ],
            },
        )
        report = build_report(store, "acme")
        assert report["experience"] == {"version": 1, "rules": 1, "episodes": 1}
