"""End-to-end smoke test for the store lifecycle plane — the CI gate.

Provisions tenants through ``repro tenants create --json``, launches a
two-replica ``repro cluster`` over one store file and proves the fleet
shares a single token bucket (the 4th request 429s at the gateway with
a float Retry-After, whichever replica served the first three).  While
anonymous load hammers the cluster it takes an online ``repro store
backup``, then: rotates the tenant's key (old key 401s within the
registry TTL, the new key works), drains the cluster, corrupts a cache
row inside the backup and has ``repro store scrub`` catch and purge it,
and finally boots a fresh server *on the backup* — which must serve the
pre-backup diagnosis as a byte-identical disk cache hit.  Exits
non-zero on any failure, so CI can run it as a bare step:

    PYTHONPATH=src python scripts/lifecycle_smoke.py
"""

import json
import sqlite3
import subprocess
import sys
import tempfile
import threading
import time

from _harness import CLUSTER_PORT, reap, spawn, stop
from repro.server import AuthError, ClientError, DiagnosisClient

NETLIST = (
    ".title divider\n"
    "Vin top 0 12\n"
    "Rtop top mid 10k tol=0.05\n"
    "Rbot mid 0 10k tol=0.05\n"
)


def spec(i):
    """Distinct-content specs: each probe value hashes to its own shard."""
    return {
        "unit": f"lifecycle-{i:03d}",
        "netlist_text": NETLIST,
        "probes": {"mid": 5.0 + 0.05 * i},
    }


def cli(*args):
    """Run ``python -m repro ...``; returns (returncode, stdout)."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=120,
    )
    return result.returncode, result.stdout


def main():
    tmp = tempfile.mkdtemp(prefix="repro-lifecycle-smoke-")
    store_path = f"{tmp}/store.db"
    backup_path = f"{tmp}/backup.db"

    # -- Gate 1: machine-readable provisioning ------------------------
    code, out = cli("tenants", "create", "acme", "--store", store_path, "--json")
    assert code == 0, out
    acme_key = json.loads(out)["api_key"]  # one compact line, no chatter
    code, out = cli(
        "tenants", "create", "globex", "--store", store_path,
        "--quota", "3", "--quota-interval", "3600", "--json",
    )
    assert code == 0, out
    globex_key = json.loads(out)["api_key"]
    print("tenants provisioned via --json ok")

    process, port = spawn(
        [
            "cluster", "--port", "0", "--replicas", "2", "--workers", "2",
            "--store", store_path, "--checkpoint-interval", "2",
        ],
        CLUSTER_PORT,
    )
    try:
        probe = DiagnosisClient(port=port, timeout=60, retries=6, backoff=0.2)
        ready = probe.ready()
        assert ready["replicas_ready"] == 2, ready
        assert "lifecycle" in ready, "readyz does not surface the lifecycle"
        print(f"gateway ready on port {port}, lifecycle surfaced in /readyz")

        # Warm one public row: the byte-identity witness for the backup.
        with DiagnosisClient(port=port, timeout=60, retries=6, backoff=0.2) as anon:
            cold = anon.diagnose(spec(0))
            assert cold["status"] == "ok", cold
            warm = anon.diagnose(spec(0))
            assert warm["cache_hit"], "repeat request must hit the cache"

        # -- Gate 2: one token bucket across both replicas ------------
        # Distinct-content specs shard across the ring, so the budget is
        # being debited from more than one replica process.
        with DiagnosisClient(
            port=port, timeout=60, api_key=globex_key, retries=0
        ) as globex:
            for i in range(1, 4):
                result = globex.diagnose(spec(i))
                assert result["status"] == "ok", result
            try:
                globex.diagnose(spec(4))
            except ClientError as exc:
                assert exc.status == 429, exc
                seconds = exc.retry_after_seconds
                assert seconds is not None and seconds > 0, exc.retry_after
                assert "." in (exc.retry_after or ""), (
                    f"Retry-After {exc.retry_after!r} is not float seconds"
                )
            else:
                raise AssertionError("4th request over the shared budget admitted")
        print(f"shared bucket ok: 3 admitted fleet-wide, 4th 429 "
              f"(Retry-After {seconds:.1f}s)")

        # -- Gate 3: online backup under live write load --------------
        quiet = threading.Event()

        def load():
            i = 100
            while not quiet.is_set():
                with DiagnosisClient(
                    port=port, timeout=60, retries=6, backoff=0.2
                ) as client:
                    client.diagnose(spec(i))
                i += 1

        loader = threading.Thread(target=load)
        loader.start()
        try:
            time.sleep(1.0)  # let writes build up
            code, out = cli("store", "backup", backup_path, "--store", store_path)
            assert code == 0, out
            assert json.loads(out)["bytes"] > 0, out
        finally:
            quiet.set()
            loader.join()
        print("online backup under live load ok")

        # -- Gate 4: rotation invalidates the old key -----------------
        code, out = cli("tenants", "rotate", "acme", "--store", store_path, "--json")
        assert code == 0, out
        new_key = json.loads(out)["api_key"]
        time.sleep(6.0)  # the registry TTL (5s) is the advertised latency
        with DiagnosisClient(port=port, timeout=60, api_key=new_key) as fresh:
            assert fresh.diagnose(spec(5))["status"] == "ok"
        with DiagnosisClient(port=port, timeout=60, api_key=acme_key, retries=0) as stale:
            try:
                stale.diagnose(spec(6))
            except AuthError as exc:
                assert exc.status == 401, exc
            else:
                raise AssertionError("rotated-away key still accepted")
        print("rotation ok: new key admitted, old key 401 within TTL")

        metrics = probe.metrics()
        assert metrics["lifecycle"]["checkpoints"] >= 1, metrics["lifecycle"]
        print(f"lifecycle metrics ok: {metrics['lifecycle']['checkpoints']} "
              "checkpoint(s) while serving")

        stop(process)
        print("graceful cluster drain ok (exit 0)")
    finally:
        reap(process)

    # -- Gate 5: scrub catches a corrupted row ------------------------
    conn = sqlite3.connect(backup_path)
    conn.execute(
        "UPDATE cache_entries SET blob = '{\"poisoned\": true}' "
        "WHERE rowid = (SELECT rowid FROM cache_entries ORDER BY seq DESC LIMIT 1)"
    )
    conn.commit()
    conn.close()
    code, out = cli("store", "scrub", "--store", backup_path)
    assert code == 0, out
    scrub = json.loads(out)
    assert scrub["purged"] == 1, scrub
    assert scrub["integrity"] == "ok", scrub
    print(f"scrub ok: purged {scrub['purged']} tampered row "
          f"of {scrub['checked']} checked")

    # -- Gate 6: the backup restores byte-identical warm hits ---------
    process, port = spawn(
        ["serve", "--port", "0", "--workers", "2", "--store", backup_path]
    )
    try:
        with DiagnosisClient(port=port, timeout=60, retries=6, backoff=0.2) as anon:
            revived = anon.diagnose(spec(0))
            assert revived["cache_hit"], "backup lost the warm cache row"
            assert revived["diagnosis"] == cold["diagnosis"], (
                "restored diagnosis drifted from the original"
            )
        print("backup restore ok: byte-identical disk cache hit")
        stop(process)
    finally:
        reap(process)

    print("lifecycle smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
