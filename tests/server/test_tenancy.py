"""HTTP-level tenancy tests: API-key auth, per-tenant quotas, the
fleet-health report route, and client-side credential handling."""

import pytest

from repro.server import AuthError, ClientError, ServerConfig
from repro.server.client import redact_headers
from repro.store import DiagnosisStore

from tests.server.test_server import FAULTY_SPEC, HEALTHY_SPEC, RunningServer


def _provision(tmp_path, **kwargs):
    """Provision one tenant in a fresh store; returns (path, api_key)."""
    path = str(tmp_path / "store.db")
    with DiagnosisStore(path) as store:
        key = store.provision_tenant("acme", **kwargs)
    return path, key


def _server_config(store_path):
    return ServerConfig(
        port=0, workers=2, queue_size=8, timeout=10.0,
        store=store_path,
    )


class TestAuth:
    def test_anonymous_requests_still_work(self, tmp_path):
        path, _key = _provision(tmp_path)
        with RunningServer(config=_server_config(path)) as rs:
            with rs.client() as client:
                result = client.diagnose(HEALTHY_SPEC)
        assert result["status"] == "ok"

    def test_unknown_key_is_401(self, tmp_path):
        path, _key = _provision(tmp_path)
        with RunningServer(config=_server_config(path)) as rs:
            with rs.client(api_key="rk_wrong", retries=0) as client:
                with pytest.raises(AuthError) as excinfo:
                    client.diagnose(HEALTHY_SPEC)
        assert excinfo.value.status == 401

    def test_valid_key_diagnoses(self, tmp_path):
        path, key = _provision(tmp_path)
        with RunningServer(config=_server_config(path)) as rs:
            with rs.client(api_key=key) as client:
                result = client.diagnose(FAULTY_SPEC)
        assert result["status"] == "ok"
        assert result["diagnosis"]["status"] == "faulty"

    def test_x_api_key_header_accepted(self, tmp_path):
        path, key = _provision(tmp_path)
        with RunningServer(config=_server_config(path)) as rs:
            with rs.client(api_key=key, api_key_header="x-api-key") as client:
                result = client.diagnose(HEALTHY_SPEC)
        assert result["status"] == "ok"

    def test_key_never_appears_in_redacted_headers(self):
        headers = {
            "Authorization": "Bearer rk_secret",
            "X-Api-Key": "rk_secret",
            "Content-Type": "application/json",
        }
        redacted = redact_headers(headers)
        assert "rk_secret" not in str(redacted)
        assert redacted["Authorization"].startswith("Bearer")
        assert redacted["Content-Type"] == "application/json"

    def test_bad_api_key_header_name_rejected(self):
        from repro.server import DiagnosisClient

        with pytest.raises(ValueError):
            DiagnosisClient(api_key="rk_x", api_key_header="cookie")


class TestTenantCacheIsolation:
    def test_tenant_and_public_do_not_share_cache(self, tmp_path):
        path, key = _provision(tmp_path)
        with RunningServer(config=_server_config(path)) as rs:
            with rs.client(api_key=key) as tenant_client:
                first = tenant_client.diagnose(FAULTY_SPEC)
                again = tenant_client.diagnose(FAULTY_SPEC)
            with rs.client() as public_client:
                public = public_client.diagnose(FAULTY_SPEC)
        assert not first["cache_hit"]
        assert again["cache_hit"]
        assert not public["cache_hit"], "public request saw a tenant's cache row"


class TestQuota:
    def test_429_with_retry_after(self, tmp_path):
        path, key = _provision(tmp_path, quota_limit=2, quota_interval=60.0)
        with RunningServer(config=_server_config(path)) as rs:
            with rs.client(api_key=key, retries=0) as client:
                client.diagnose(HEALTHY_SPEC)
                client.diagnose(HEALTHY_SPEC)
                with pytest.raises(ClientError) as excinfo:
                    client.diagnose(HEALTHY_SPEC)
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after is not None
        assert float(excinfo.value.retry_after) >= 1

    def test_retry_after_is_float_seconds_from_refill_rate(self, tmp_path):
        """Token bucket, not fixed window: an empty 2-per-60s bucket
        refills one token in exactly 30s, and the header says so."""
        path, key = _provision(tmp_path, quota_limit=2, quota_interval=60.0)
        with RunningServer(config=_server_config(path)) as rs:
            with rs.client(api_key=key, retries=0) as client:
                client.diagnose(HEALTHY_SPEC)
                client.diagnose(HEALTHY_SPEC)
                with pytest.raises(ClientError) as excinfo:
                    client.diagnose(HEALTHY_SPEC)
        seconds = excinfo.value.retry_after_seconds
        assert seconds is not None
        # A hair under 30 is possible (tokens accrued since the drain).
        assert 25.0 <= seconds <= 30.0

    def test_retry_after_seconds_parses_or_is_none(self):
        err = ClientError(429, {"error": "quota"})
        assert err.retry_after_seconds is None
        err.retry_after = "29.500"
        assert err.retry_after_seconds == pytest.approx(29.5)
        err.retry_after = "soon"
        assert err.retry_after_seconds is None

    def test_quota_is_shared_across_server_restarts(self, tmp_path):
        """The bucket lives in the store file, not the process: a second
        server sees the budget the first one already spent."""
        path, key = _provision(tmp_path, quota_limit=2, quota_interval=3600.0)
        with RunningServer(config=_server_config(path)) as rs:
            with rs.client(api_key=key, retries=0) as client:
                client.diagnose(HEALTHY_SPEC)
                client.diagnose(HEALTHY_SPEC)
        with RunningServer(config=_server_config(path)) as rs:
            with rs.client(api_key=key, retries=0) as client:
                with pytest.raises(ClientError) as excinfo:
                    client.diagnose(HEALTHY_SPEC)
        assert excinfo.value.status == 429

    def test_quota_does_not_limit_public_traffic(self, tmp_path):
        path, _key = _provision(tmp_path, quota_limit=1, quota_interval=60.0)
        with RunningServer(config=_server_config(path)) as rs:
            with rs.client() as client:
                for _ in range(3):
                    assert client.diagnose(HEALTHY_SPEC)["status"] == "ok"


class TestRotationOverHttp:
    def test_rotated_away_key_is_401_and_new_key_works(self, tmp_path):
        path, old = _provision(tmp_path)
        with DiagnosisStore(path) as store:
            new = store.rotate_key("acme")
        with RunningServer(config=_server_config(path)) as rs:
            with rs.client(api_key=new) as client:
                assert client.diagnose(HEALTHY_SPEC)["status"] == "ok"
            with rs.client(api_key=old, retries=0) as client:
                with pytest.raises(AuthError) as excinfo:
                    client.diagnose(HEALTHY_SPEC)
        assert excinfo.value.status == 401

    def test_revoked_key_is_401(self, tmp_path):
        path, key = _provision(tmp_path)
        with DiagnosisStore(path) as store:
            store.revoke_keys("acme")
        with RunningServer(config=_server_config(path)) as rs:
            with rs.client(api_key=key, retries=0) as client:
                with pytest.raises(AuthError) as excinfo:
                    client.diagnose(HEALTHY_SPEC)
        assert excinfo.value.status == 401


class TestTenantReport:
    def test_report_reflects_history(self, tmp_path):
        path, key = _provision(tmp_path)
        with RunningServer(config=_server_config(path)) as rs:
            with rs.client(api_key=key) as client:
                client.diagnose(FAULTY_SPEC)
                client.diagnose(FAULTY_SPEC)  # cache hit, still history
                report = client.tenant_report("acme")
        assert report["tenant"] == "acme"
        assert report["history"]["total"] == 2
        assert report["history"]["faulty"] == 2
        assert report["history"]["cache_hit_rate"] == pytest.approx(0.5)
        assert report["top_culprits"]

    def test_report_needs_credentials(self, tmp_path):
        path, _key = _provision(tmp_path)
        with RunningServer(config=_server_config(path)) as rs:
            with rs.client(retries=0) as client:
                with pytest.raises(AuthError) as excinfo:
                    client.tenant_report("acme")
        assert excinfo.value.status == 401

    def test_report_is_tenant_scoped(self, tmp_path):
        path = str(tmp_path / "store.db")
        with DiagnosisStore(path) as store:
            key = store.provision_tenant("acme")
            store.provision_tenant("globex")
        with RunningServer(config=_server_config(path)) as rs:
            with rs.client(api_key=key, retries=0) as client:
                with pytest.raises(AuthError) as excinfo:
                    client.tenant_report("globex")
        assert excinfo.value.status == 403

    def test_report_404_without_store(self):
        with RunningServer() as rs:
            with rs.client(retries=0) as client:
                with pytest.raises(ClientError) as excinfo:
                    client.tenant_report("acme")
        assert excinfo.value.status == 404


class TestMetricsWithStore:
    def test_metrics_include_store_and_quota(self, tmp_path):
        path, key = _provision(tmp_path)
        with RunningServer(config=_server_config(path)) as rs:
            with rs.client(api_key=key) as client:
                client.diagnose(HEALTHY_SPEC)
                client.diagnose(HEALTHY_SPEC)
                metrics = client.metrics()
        assert metrics["store"]["history_rows"] == 2
        assert metrics["store"]["cache_rows"] == 1
        assert "quota" in metrics
        cache = metrics["cache"]
        assert cache["hits_mem"] == 1

    def test_metrics_without_store_unchanged(self):
        with RunningServer() as rs:
            with rs.client() as client:
                client.diagnose(HEALTHY_SPEC)
                metrics = client.metrics()
        assert metrics["store"] is None
        assert metrics["quota"] is None
