"""Crash-recovery tests: SIGKILL mid-write must never cost committed
state.  The store runs WAL journaling with explicit transactions, so a
hard kill loses at most the uncommitted tail — the reopened database
replays the WAL and serves everything that was committed."""

import os
import signal
import subprocess
import sys
import textwrap
import time

from repro.store import DiagnosisStore

_SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)

#: The victim: commits real writes through the store, then parks inside
#: an *uncommitted* transaction and waits to be killed.
_WRITER = textwrap.dedent(
    """
    import sqlite3, sys
    from repro.store import DiagnosisStore
    from tests.store.test_db import _seal

    path = sys.argv[1]
    store = DiagnosisStore(path)
    for i in range(20):
        blob, digest = _seal({"i": i})
        store.cache_put("public", f"k{i}", blob, digest)
    store.merge_experience("public", {
        "base_certainty": 0.6, "episode_count": 1,
        "rules": [{"signature": [["V(out)", "conflict", -1]],
                   "component": "R1", "mode": "open",
                   "certainty": 0.6, "occurrences": 1}],
    })
    # Now crash mid-write: open a transaction, insert, never commit.
    conn = sqlite3.connect(path)
    conn.isolation_level = None
    conn.execute("BEGIN IMMEDIATE")
    conn.execute(
        "INSERT OR REPLACE INTO cache_entries (namespace, key, blob, digest, seq)"
        " VALUES ('public', 'uncommitted', 'garbage', 'bad-digest', 999)"
    )
    print("INFLIGHT", flush=True)
    import time
    time.sleep(60)  # the parent SIGKILLs us here
    """
)


#: Commits a known number of quota debits, then parks inside an
#: *uncommitted* debit-shaped transaction — the double-charge scenario.
_DEBITOR = textwrap.dedent(
    """
    import sqlite3, sys, time
    from repro.store import DiagnosisStore

    path = sys.argv[1]
    store = DiagnosisStore(path)
    # 5 committed debits against a 100-token bucket (refill negligible).
    for _ in range(5):
        allowed, _r, _t = store.quota_debit("acme", 100, 1e9, now=0.0)
        assert allowed
    # Now the crash window: a debit that never commits.
    conn = sqlite3.connect(path)
    conn.isolation_level = None
    conn.execute("BEGIN IMMEDIATE")
    conn.execute("UPDATE quota_buckets SET tokens = 0 WHERE tenant = 'acme'")
    print("INFLIGHT", flush=True)
    time.sleep(60)  # the parent SIGKILLs us here
    """
)

#: Commits durable rows, then loops checkpoint + retention forever —
#: the parent kills it mid-maintenance.
_MAINTAINER = textwrap.dedent(
    """
    import sys
    from repro.store import DiagnosisStore
    from tests.store.test_db import _seal

    path = sys.argv[1]
    store = DiagnosisStore(path)
    for i in range(20):
        blob, digest = _seal({"i": i})
        store.cache_put("public", f"k{i}", blob, digest)
        store.record_history("acme", f"u{i}", f"h{i}", "faulty", True,
                             "R1", 0.01, False)
    print("INFLIGHT", flush=True)
    while True:  # maintenance under fire: nothing here may eat a commit
        store.checkpoint()
        store.retain_history(max_age=3600.0, max_rows=0, batch=5)
        store.retain_cache(3600.0, batch=5)
    """
)


def _spawn_writer(path, script=_WRITER):
    env = dict(os.environ)
    root = os.path.dirname(_SRC_DIR)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC_DIR, root, env.get("PYTHONPATH", "")) if p
    )
    process = subprocess.Popen(
        [sys.executable, "-c", script, str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.time() + 30
    lines = []
    while time.time() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"writer died early ({process.returncode}): {lines + [process.stdout.read()]}"
            )
        line = process.stdout.readline()
        lines.append(line)
        if "INFLIGHT" in line:
            return process
    raise AssertionError(f"writer never reached INFLIGHT: {lines}")


def _kill(process):
    try:
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)
    finally:
        if process.poll() is None:
            process.kill()


class TestSigkillRecovery:
    def test_committed_writes_survive_a_hard_kill(self, tmp_path):
        path = tmp_path / "store.db"
        process = _spawn_writer(path)
        try:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=10)
        finally:
            if process.poll() is None:
                process.kill()

        # Reopen: WAL replay must hand back every committed row, drop
        # the in-flight one, and raise nothing.
        with DiagnosisStore(path) as store:
            assert store.cache_rows() == 20
            for i in range(20):
                status, _blob = store.cache_get("public", f"k{i}")
                assert status == "hit", f"k{i} lost or corrupt after kill"
            assert store.cache_get("public", "uncommitted") == ("miss", None)
            data, version = store.load_experience("public")
            assert version == 1
            assert len(data["rules"]) == 1

    def test_reopen_is_writable_after_kill(self, tmp_path):
        path = tmp_path / "store.db"
        process = _spawn_writer(path)
        try:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=10)
        finally:
            if process.poll() is None:
                process.kill()
        with DiagnosisStore(path) as store:
            from tests.store.test_db import _seal

            blob, digest = _seal({"fresh": True})
            store.cache_put("public", "fresh", blob, digest)
            assert store.cache_get("public", "fresh")[0] == "hit"
            version = store.merge_experience(
                "public",
                {
                    "base_certainty": 0.6,
                    "episode_count": 1,
                    "rules": [
                        {
                            "signature": [["V(out)", "ok", 1]],
                            "component": "R2",
                            "mode": "short",
                            "certainty": 0.6,
                            "occurrences": 1,
                        }
                    ],
                },
            )
            assert version == 2


class TestSigkillQuota:
    def test_kill_mid_debit_never_double_charges(self, tmp_path):
        """The refill+debit transaction either committed or it didn't:
        after a SIGKILL inside an uncommitted debit, the bucket holds
        exactly what the committed debits left behind."""
        path = tmp_path / "store.db"
        process = _spawn_writer(path, script=_DEBITOR)
        _kill(process)
        with DiagnosisStore(path) as store:
            assert store.integrity_check() == "ok"
            # 100 capacity - 5 committed debits; the in-flight zeroing
            # of the bucket must have been rolled back by WAL replay.
            assert store.quota_levels() == {"acme": 95.0}
            # And the bucket still debits normally.
            allowed, _r, remaining = store.quota_debit("acme", 100, 1e9, now=0.0)
            assert allowed and remaining == 94.0


class TestSigkillMaintenance:
    def test_kill_mid_maintenance_loses_nothing(self, tmp_path):
        """SIGKILL while checkpoint/retention churn: every committed row
        survives and the reopened file passes integrity_check."""
        path = tmp_path / "store.db"
        process = _spawn_writer(path, script=_MAINTAINER)
        time.sleep(0.2)  # let a few maintenance iterations land
        _kill(process)
        with DiagnosisStore(path) as store:
            assert store.integrity_check() == "ok"
            assert store.scrub()["purged"] == 0
            assert store.cache_rows() == 20
            for i in range(20):
                assert store.cache_get("public", f"k{i}")[0] == "hit"
            assert len(store.history_rows("acme")) == 20
            # The store stays maintainable after the crash, too.
            busy, _log, _done = store.checkpoint()
            assert busy == 0
