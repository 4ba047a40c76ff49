"""End-to-end smoke test for the persistence plane — the CI gate.

Provisions two tenants in a fresh sqlite store, launches ``repro serve
--store`` on an ephemeral port, learns a rule and warms the cache, then
SIGKILLs the server mid-flight and restarts it on the same store.  The
restarted process must serve the same diagnosis as a *disk* cache hit
and still know the learned rule.  Along the way it checks tenant cache
isolation, quota enforcement (429 + Retry-After) and the fleet-health
report.  Exits non-zero on any failure, so CI can run it as a bare
step:

    PYTHONPATH=src python scripts/persistence_smoke.py
"""

import sys
import tempfile

from _harness import reap, spawn, stop
from repro.server import AuthError, ClientError, DiagnosisClient
from repro.store import DiagnosisStore

NETLIST = (
    ".title divider\n"
    "Vin top 0 12\n"
    "Rtop top mid 10k tol=0.05\n"
    "Rbot mid 0 10k tol=0.05\n"
)

#: Faulty divider with a confirmed repair, so the server learns a rule.
SPEC = {
    "unit": "smoke-unit",
    "netlist_text": NETLIST,
    "probes": {"mid": 7.5},
    "confirm": {"component": "Rbot", "mode": "open"},
}


def start_server(store_path):
    return spawn(["serve", "--port", "0", "--workers", "2", "--store", store_path])


def main():
    tmp = tempfile.mkdtemp(prefix="repro-persistence-smoke-")
    store_path = f"{tmp}/store.db"
    with DiagnosisStore(store_path) as store:
        acme_key = store.provision_tenant("acme")
        globex_key = store.provision_tenant(
            "globex", quota_limit=2, quota_interval=3600.0
        )

    process, port = start_server(store_path)
    try:
        with DiagnosisClient(port=port, timeout=60, retries=6, backoff=0.2) as anon, \
                DiagnosisClient(port=port, timeout=60, api_key=acme_key) as acme:
            cold = acme.diagnose(SPEC)
            assert cold["diagnosis"]["status"] == "faulty", cold
            assert not cold["cache_hit"], "first tenant request must miss"
            warm = acme.diagnose(SPEC)
            assert warm["cache_hit"], "repeat tenant request must hit"

            public = anon.diagnose(SPEC)
            assert not public["cache_hit"], "public saw a tenant's cache row"

            learned = anon.experience()
            assert learned["rules"], "no rule learned from the confirmed repair"
        print(f"warm run + isolation ok on port {port}")

        # Hard kill: no drain, no atexit — only sqlite's WAL protects us.
        process.kill()
        process.wait(timeout=30)
        print("server SIGKILLed mid-flight")
    finally:
        reap(process)

    process, port = start_server(store_path)
    try:
        with DiagnosisClient(port=port, timeout=60, retries=6, backoff=0.2) as anon, \
                DiagnosisClient(port=port, timeout=60, api_key=acme_key) as acme:
            revived = acme.diagnose(SPEC)
            assert revived["cache_hit"], "restart lost the tenant's cache"
            assert revived["diagnosis"] == cold["diagnosis"], "disk row drifted"

            restored = anon.experience()
            assert restored["rules"], "restart lost the learned experience"
        print("restart-warm cache + experience ok")

        with DiagnosisClient(
            port=port, timeout=60, api_key=globex_key, retries=0
        ) as globex:
            globex.diagnose(SPEC)
            globex.diagnose(SPEC)
            try:
                globex.diagnose(SPEC)
            except ClientError as exc:
                assert exc.status == 429, exc
                retry_after = getattr(exc, "retry_after", None)
                assert retry_after, "429 arrived without a Retry-After header"
            else:
                raise AssertionError("third request over quota was admitted")
        print("quota breach -> 429 ok")

        with DiagnosisClient(port=port, timeout=60, api_key=acme_key) as acme:
            report = acme.tenant_report("acme")
            assert report["history"]["total"] >= 3, report
            assert report["history"]["cache_hit_rate"] > 0, report
            assert report["top_culprits"], report
        print(f"tenant report ok: {report['history']['total']} run(s) on record")

        with DiagnosisClient(
            port=port, retries=0, timeout=10, api_key="rk_wrong"
        ) as bad:
            try:
                bad.tenant_report("acme")
            except AuthError as exc:
                assert exc.status == 401, exc
            else:
                raise AssertionError("bad key read a tenant report")
        print("auth rejection ok")

        stop(process)
        print("graceful drain ok (exit 0)")
        print("persistence smoke test passed")
        return 0
    finally:
        reap(process)


if __name__ == "__main__":
    sys.exit(main())
