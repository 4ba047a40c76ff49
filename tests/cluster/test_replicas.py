"""The fleet base without subprocesses: supervision, restarts, routing.

``ReplicaProcess.spawn``, ``probe`` and ``terminate`` are replaced by
fakes, so ``ReplicaManager.poll_once``'s evict-and-restart path runs in
process and deterministically; ``StaticFleet`` runs over endpoints
nobody listens on (its probe clients connect lazily).
"""

import pytest

from repro.cluster.replicas import ReplicaManager, ReplicaProcess, StaticFleet
from repro.resilience import supervisor
from repro.server.app import ServerConfig


class _Process:
    """Stands in for ``subprocess.Popen``: running until told otherwise."""

    def __init__(self):
        self.returncode = None

    def poll(self):
        return self.returncode


@pytest.fixture
def fake_processes(monkeypatch):
    """Replica processes whose probes answer from ``healthy``."""
    healthy = {}

    def spawn(self):
        self.process = _Process()
        self.epoch += 1
        self.connect(40000 + 10 * int(self.replica_id[1:]) + self.epoch)
        self.ready = True

    def probe(self):
        if not self.alive or not healthy.get(self.replica_id, True):
            return False
        self.last_metrics = {"replica": self.replica_id, "epoch": self.epoch}
        return True

    def terminate(self, grace=10.0):
        self.ready = False
        if self.process is not None and self.process.returncode is None:
            self.process.returncode = 0
        self.close()
        return 0

    monkeypatch.setattr(ReplicaProcess, "spawn", spawn)
    monkeypatch.setattr(ReplicaProcess, "probe", probe)
    monkeypatch.setattr(ReplicaProcess, "terminate", terminate)
    return healthy


def _manager(count=2):
    manager = ReplicaManager(count, ServerConfig(port=0, workers=1))
    manager.start()
    return manager


def _failures_to_floor():
    """Consecutive failed probes that take a fresh score below the floor."""
    score, n = 1.0, 0
    while score >= supervisor.HEALTH_FLOOR:
        score = supervisor.HEALTH_DECAY * score
        n += 1
    return n


class TestReplicaManagerSupervision:
    def test_low_score_restarts_under_the_same_id(self, fake_processes):
        manager = _manager()
        assert manager.poll_once(0) == {"restarted": [], "killed": []}
        old_endpoint = manager.ready_endpoints().get("r1")
        fake_processes["r1"] = False
        failures = _failures_to_floor()
        for tick in range(1, failures):
            assert manager.poll_once(tick)["restarted"] == []
        assert manager.poll_once(failures)["restarted"] == ["r1"]

        assert manager.replica_ids == ["r0", "r1"]
        assert manager.epoch("r1") == 2 and manager.epoch("r0") == 1
        assert manager.ready_endpoints().get("r1") not in (None, old_endpoint)
        assert manager.restarts_total == 1
        replica = manager.replicas["r1"]
        assert replica.restarts == 1
        assert replica.health.score == 1.0  # a respawn starts healthy
        assert manager.snapshot()["replicas"]["r1"]["restarts"] == 1

    def test_metrics_keep_the_retired_runs_last_payload(self, fake_processes):
        manager = _manager()
        manager.poll_once(0)
        fake_processes["r1"] = False
        for tick in range(1, _failures_to_floor() + 1):
            manager.poll_once(tick)
        # The new r1 has not answered a probe yet: only its old run counts.
        assert manager.metrics_snapshots() == [
            {"replica": "r1", "epoch": 1},
            {"replica": "r0", "epoch": 1},
        ]
        fake_processes["r1"] = True
        manager.poll_once(99)
        assert {"replica": "r1", "epoch": 1} in manager.metrics_snapshots()
        assert {"replica": "r1", "epoch": 2} in manager.metrics_snapshots()

    def test_dead_process_restarts_at_once(self, fake_processes):
        manager = _manager()
        manager.replicas["r0"].process.returncode = -9
        assert manager.ready_endpoints().get("r0") is None
        assert set(manager.ready_endpoints()) == {"r1"}
        assert manager.poll_once(0)["restarted"] == ["r0"]
        assert manager.epoch("r0") == 2
        assert set(manager.ready_endpoints()) == {"r0", "r1"}

    def test_request_path_failures_count(self, fake_processes):
        manager = _manager()
        for _ in range(_failures_to_floor() - 1):
            manager.note_outcome("r0", False)
        manager.note_outcome("missing", False)  # unknown ids are ignored
        assert manager.poll_once(0)["restarted"] == []  # the probe answered
        for _ in range(_failures_to_floor() - 1):
            manager.note_outcome("r0", False)
        fake_processes["r0"] = False
        # One failed probe on top of the gateway's reports crosses the floor.
        assert manager.poll_once(1)["restarted"] == ["r0"]


class TestBothFleetsShareOneSurface:
    def test_same_answers_and_key_sets(self, fake_processes):
        manager = _manager(2)
        static = StaticFleet(["127.0.0.1:1", "http://127.0.0.1:2/"])
        try:
            for fleet in (manager, static):
                assert fleet.replica_ids == ["r0", "r1"]
                assert fleet.ready_endpoints().get("r9") is None
                assert fleet.epoch("r9") == 0
                assert fleet.epoch("r0") == 1
                endpoints = fleet.ready_endpoints()
                assert set(endpoints) == {"r0", "r1"}
                assert endpoints["r0"] == fleet.replicas["r0"].endpoint
                assert endpoints["r0"].startswith("127.0.0.1:")
                fleet.note_outcome("r0", False)
                assert fleet.replicas["r0"].health.score < 1.0
            assert static.ready_endpoints().get("r1") == "127.0.0.1:2"

            snapshots = [manager.snapshot(), static.snapshot()]
            assert set(snapshots[0]) == set(snapshots[1]) == {
                "replicas", "restarts_total", "kills_injected",
            }
            replica_keys = {
                frozenset(entry)
                for snap in snapshots
                for entry in snap["replicas"].values()
            }
            assert replica_keys == {
                frozenset({"port", "alive", "ready", "health", "epoch", "restarts"})
            }
        finally:
            static.stop()

    def test_static_fleet_routes_around_but_never_restarts(self):
        static = StaticFleet(["127.0.0.1:1"])
        try:
            # Nobody listens on port 1: every probe fails, nothing respawns.
            for tick in range(_failures_to_floor() + 1):
                assert static.poll_once(tick) == {"restarted": [], "killed": []}
            assert static.replicas["r0"].health.below_floor()
            assert static.snapshot()["restarts_total"] == 0
            assert static.metrics_snapshots() == []
        finally:
            static.stop()

    def test_fleets_need_members(self):
        with pytest.raises(ValueError):
            StaticFleet([])
        with pytest.raises(ValueError):
            ReplicaManager(0, ServerConfig(port=0))
