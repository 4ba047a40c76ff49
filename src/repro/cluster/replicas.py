"""Replica lifecycle for the diagnosis cluster.

A replica is one ``repro serve`` process — its own GIL, its own
admission queue, its own warm caches.  :class:`ReplicaManager` owns a
fleet of them:

* **spawn** — each replica boots as a subprocess on an ephemeral port
  (``--port 0``); the manager scrapes the bound port from the server's
  structured ``"listening"`` log line, then keeps draining the pipe on
  a daemon thread so the child never blocks on a full pipe;
* **score** — every supervision tick probes ``/readyz`` and pulls
  ``/metrics?samples=1``; outcomes fold into the same
  :class:`~repro.resilience.supervisor.EwmaHealth` score the PR-5
  fleet supervisor applies to pool workers (request-path failures
  reported by the gateway count too);
* **evict + restart** — a dead process or a score below the floor gets
  the replica retired (its final telemetry snapshot is kept so fleet
  totals stay monotonic) and respawned on a fresh port under the *same
  replica id*, so it reclaims exactly its old hash-ring shard.  Each
  respawn bumps the replica's ``epoch``, which tells the gossip layer
  to re-seed it from scratch;
* **drain** — ``stop()`` cascades the gateway's SIGTERM: each child is
  signalled, given the grace window to finish in-flight work, then
  joined (killed only as a last resort).

Chaos: the supervision tick honours the ``cluster.replica_kill`` fault
point — a deterministic plan can hard-kill replica *k* at tick *t*, and
the ordinary eviction/restart path must recover.

:class:`StaticFleet` is the spawn-free variant: the same scoring and
endpoint surface over replicas somebody else runs (in-process servers
in the tests, or an externally managed fleet), with no restarts.
"""

from __future__ import annotations

import logging
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Dict, List, Optional

from repro.resilience import faults
from repro.resilience.supervisor import EwmaHealth
from repro.server.app import ServerConfig
from repro.server.client import ClientError, DiagnosisClient

__all__ = ["ReplicaProcess", "ReplicaManager", "StaticFleet"]

log = logging.getLogger("repro.cluster")

_PORT_RE = re.compile(r'"port": (\d+)')

#: Seconds a spawned replica has to report its bound port.
BOOT_TIMEOUT = 60.0


def _spawn_env() -> Dict[str, str]:
    """The child environment, with the repro package importable."""
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_dir + os.pathsep + existing if existing else src_dir
        )
    return env


class ReplicaProcess:
    """One managed ``repro serve`` subprocess and its health state."""

    def __init__(
        self,
        replica_id: str,
        config: ServerConfig,
        host: str = "127.0.0.1",
    ) -> None:
        self.replica_id = replica_id
        self.config = config
        self.host = host
        self.health = EwmaHealth()
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.epoch = 0  # bumps on every (re)spawn
        self.restarts = 0
        self.ready = False
        self.last_metrics: Dict = {}
        self._client: Optional[DiagnosisClient] = None
        self._tail: "deque[str]" = deque(maxlen=40)  # recent child output
        self._drainer: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def spawn(self) -> None:
        """Start the subprocess and wait for its bound port."""
        cmd = [sys.executable, "-m", "repro", "serve", *self.config.to_argv()]
        self.process = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_spawn_env(),
        )
        self.epoch += 1
        self.ready = False
        self.port = self._scrape_port()
        self._client = DiagnosisClient(
            host=self.host, port=self.port, retries=0, timeout=5.0
        )
        self._drainer = threading.Thread(
            target=self._drain_output,
            name=f"replica-{self.replica_id}-log",
            daemon=True,
        )
        self._drainer.start()
        self.ready = True
        log.info(
            '{"event": "replica_up", "replica": "%s", "port": %d, "epoch": %d}',
            self.replica_id, self.port, self.epoch,
        )

    def _scrape_port(self) -> int:
        assert self.process is not None and self.process.stdout is not None
        deadline = time.monotonic() + BOOT_TIMEOUT
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                break
            line = self.process.stdout.readline()
            if not line:
                continue
            self._tail.append(line.rstrip())
            match = _PORT_RE.search(line)
            if match:
                return int(match.group(1))
        raise RuntimeError(
            f"replica {self.replica_id} never reported a port; "
            f"recent output: {list(self._tail)}"
        )

    def _drain_output(self) -> None:
        process = self.process
        if process is None or process.stdout is None:
            return
        for line in process.stdout:
            self._tail.append(line.rstrip())

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    @property
    def endpoint(self) -> Optional[str]:
        if self.ready and self.alive and self.port is not None:
            return f"{self.host}:{self.port}"
        return None

    def kill(self) -> None:
        """Hard-kill (SIGKILL) — the chaos path, not the drain path."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
        self.ready = False

    def terminate(self, grace: float = 10.0) -> Optional[int]:
        """Graceful stop: SIGTERM → drain grace → SIGKILL backstop."""
        self.ready = False
        process = self.process
        if process is None:
            return None
        if process.poll() is None:
            try:
                process.send_signal(signal.SIGTERM)
            except (ProcessLookupError, OSError):
                pass
            try:
                process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)
        if self._drainer is not None:
            self._drainer.join(timeout=2.0)
        if self._client is not None:
            self._client.close()
            self._client = None
        return process.returncode

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe(self) -> bool:
        """One health poll: ``/readyz`` then ``/metrics?samples=1``.

        Returns True when the replica answered ready; stores the
        metrics payload for fleet aggregation either way it can.
        """
        if not self.alive or self._client is None:
            return False
        try:
            self._client.ready()
            self.last_metrics = self._client.metrics(samples=True)
            return True
        except ClientError:
            # Answering but not ready (draining) or shedding: reachable,
            # not routable.
            return False
        except Exception:
            return False

    def snapshot(self) -> Dict:
        return {
            "port": self.port,
            "alive": self.alive,
            "ready": self.ready,
            "health": round(self.health.score, 4),
            "epoch": self.epoch,
            "restarts": self.restarts,
        }


class ReplicaManager:
    """Spawn, score, evict and drain a fleet of server subprocesses."""

    def __init__(
        self,
        count: int,
        config: Optional[ServerConfig] = None,
        host: str = "127.0.0.1",
    ) -> None:
        if count < 1:
            raise ValueError("need at least one replica")
        self.config = config or ServerConfig(port=0, workers=2)
        self.replicas: Dict[str, ReplicaProcess] = {
            f"r{i}": ReplicaProcess(f"r{i}", self.config, host=host)
            for i in range(count)
        }
        self._retired_metrics: List[Dict] = []  # final snapshots of evicted runs
        self.restarts_total = 0
        self.kills_injected = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Fleet lifecycle
    # ------------------------------------------------------------------
    @property
    def replica_ids(self) -> List[str]:
        return sorted(self.replicas)

    def start(self) -> None:
        for replica in self.replicas.values():
            replica.spawn()

    def stop(self, grace: float = 30.0) -> None:
        """Cascade the drain: SIGTERM every replica, then join them."""
        for replica in self.replicas.values():
            if replica.process is not None and replica.process.poll() is None:
                replica.ready = False
                try:
                    replica.process.send_signal(signal.SIGTERM)
                except (ProcessLookupError, OSError):
                    pass
        deadline = time.monotonic() + grace
        for replica in self.replicas.values():
            remaining = max(0.5, deadline - time.monotonic())
            replica.terminate(grace=remaining)

    # ------------------------------------------------------------------
    # Routing surface
    # ------------------------------------------------------------------
    def endpoint_of(self, replica_id: str) -> Optional[str]:
        replica = self.replicas.get(replica_id)
        return replica.endpoint if replica is not None else None

    def ready_endpoints(self) -> Dict[str, str]:
        return {
            rid: replica.endpoint
            for rid, replica in self.replicas.items()
            if replica.endpoint is not None
        }

    def epoch(self, replica_id: str) -> int:
        replica = self.replicas.get(replica_id)
        return replica.epoch if replica is not None else 0

    def note_outcome(self, replica_id: str, ok: bool) -> None:
        """Fold a request-path outcome into the replica's health score."""
        replica = self.replicas.get(replica_id)
        if replica is not None:
            replica.health.record(ok)

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def poll_once(self, tick: int = 0) -> Dict:
        """One supervision pass; returns what happened this tick.

        Probes every replica, folds the outcome into its EWMA score,
        fires the ``cluster.replica_kill`` chaos point, and evicts +
        respawns anything dead or scoring below the health floor.
        """
        events: Dict = {"restarted": [], "killed": []}
        for rid, replica in self.replicas.items():
            if replica.alive and faults.maybe_fire(
                "cluster.replica_kill", key=f"{rid}#{tick}"
            ):
                replica.kill()
                with self._lock:
                    self.kills_injected += 1
                events["killed"].append(rid)
                log.info('{"event": "chaos_replica_kill", "replica": "%s"}', rid)
            ok = replica.probe()
            replica.health.record(ok)
            if not replica.alive or replica.health.below_floor():
                self._restart(replica)
                events["restarted"].append(rid)
        return events

    def _restart(self, replica: ReplicaProcess) -> None:
        if replica.last_metrics:
            # Keep the dead run's final telemetry so fleet counters
            # aggregated at the gateway stay monotonic across restarts.
            with self._lock:
                self._retired_metrics.append(replica.last_metrics)
            replica.last_metrics = {}
        replica.terminate(grace=2.0)
        replica.spawn()
        replica.health.reset()
        replica.restarts += 1
        with self._lock:
            self.restarts_total += 1
        log.info(
            '{"event": "replica_restarted", "replica": "%s", "port": %s}',
            replica.replica_id, replica.port,
        )

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def metrics_snapshots(self) -> List[Dict]:
        """Latest per-replica ``/metrics`` payloads plus retired runs."""
        with self._lock:
            snapshots = list(self._retired_metrics)
        snapshots.extend(
            replica.last_metrics
            for replica in self.replicas.values()
            if replica.last_metrics
        )
        return snapshots

    def snapshot(self) -> Dict:
        return {
            "replicas": {rid: r.snapshot() for rid, r in self.replicas.items()},
            "restarts_total": self.restarts_total,
            "kills_injected": self.kills_injected,
        }


class _AttachedReplica:
    """StaticFleet's per-endpoint record (no process to manage)."""

    def __init__(self, replica_id: str, endpoint: str) -> None:
        self.replica_id = replica_id
        host, _, port = endpoint.replace("http://", "").rstrip("/").rpartition(":")
        self.host = host
        self.port = int(port)
        self.health = EwmaHealth()
        self.epoch = 1
        self.restarts = 0
        self.ready = True
        self.last_metrics: Dict = {}
        self._client = DiagnosisClient(host=host, port=self.port, retries=0, timeout=5.0)

    @property
    def endpoint(self) -> Optional[str]:
        return f"{self.host}:{self.port}" if self.ready else None

    def probe(self) -> bool:
        try:
            self._client.ready()
            self.last_metrics = self._client.metrics(samples=True)
            return True
        except Exception:
            return False

    def snapshot(self) -> Dict:
        return {
            "port": self.port,
            "alive": self.ready,
            "ready": self.ready,
            "health": round(self.health.score, 4),
            "epoch": self.epoch,
            "restarts": 0,
        }


class StaticFleet:
    """A fixed fleet of externally-run replicas (tests, remote hosts).

    Same surface as :class:`ReplicaManager` minus spawning: probes
    score health, but nothing is evicted or restarted — a down replica
    is simply routed around until it answers again.
    """

    def __init__(self, endpoints: List[str]) -> None:
        if not endpoints:
            raise ValueError("need at least one endpoint")
        self.replicas: Dict[str, _AttachedReplica] = {
            f"r{i}": _AttachedReplica(f"r{i}", endpoint)
            for i, endpoint in enumerate(endpoints)
        }
        self.restarts_total = 0
        self.kills_injected = 0

    @property
    def replica_ids(self) -> List[str]:
        return sorted(self.replicas)

    def start(self) -> None:
        pass

    def stop(self, grace: float = 30.0) -> None:
        for replica in self.replicas.values():
            replica._client.close()

    def endpoint_of(self, replica_id: str) -> Optional[str]:
        replica = self.replicas.get(replica_id)
        return replica.endpoint if replica is not None else None

    def ready_endpoints(self) -> Dict[str, str]:
        return {
            rid: replica.endpoint
            for rid, replica in self.replicas.items()
            if replica.endpoint is not None
        }

    def epoch(self, replica_id: str) -> int:
        replica = self.replicas.get(replica_id)
        return replica.epoch if replica is not None else 0

    def note_outcome(self, replica_id: str, ok: bool) -> None:
        replica = self.replicas.get(replica_id)
        if replica is not None:
            replica.health.record(ok)

    def poll_once(self, tick: int = 0) -> Dict:
        for replica in self.replicas.values():
            replica.health.record(replica.probe())
        return {"restarted": [], "killed": []}

    def metrics_snapshots(self) -> List[Dict]:
        return [r.last_metrics for r in self.replicas.values() if r.last_metrics]

    def snapshot(self) -> Dict:
        return {
            "replicas": {rid: r.snapshot() for rid, r in self.replicas.items()},
            "restarts_total": 0,
            "kills_injected": 0,
        }
