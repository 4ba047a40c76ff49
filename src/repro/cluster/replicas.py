"""Replica lifecycle for the diagnosis cluster.

A replica is one ``repro serve`` process — its own GIL, its own
admission queue, its own warm caches.  :class:`Fleet` is the surface
the gateway routes and scores through (endpoints, epochs, health,
metrics), over :class:`Replica` records.  :class:`ReplicaManager` is
the fleet that owns its replicas:

* **spawn** — each :class:`ReplicaProcess` boots as a subprocess on an
  ephemeral port (``--port 0``); the manager scrapes the bound port from
  the server's structured ``"listening"`` log line, then keeps draining
  the pipe on a daemon thread so the child never blocks on a full pipe;
* **score** — every supervision tick probes ``/readyz`` and pulls
  ``/metrics?samples=1``; outcomes fold into the same
  :class:`~repro.resilience.supervisor.EwmaHealth` score the fleet
  supervisor applies to pool workers (request-path failures reported by
  the gateway count too);
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

:class:`StaticFleet` is the spawn-free fleet over replicas somebody
else runs (in-process servers in the tests, or an externally managed
fleet): probes score health, nothing is restarted.
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
from repro.server.client import DiagnosisClient

__all__ = ["Fleet", "Replica", "ReplicaProcess", "ReplicaManager", "StaticFleet"]

log = logging.getLogger("repro.cluster")

_PORT_RE = re.compile(r'"port": (\d+)')

#: Seconds a spawned replica has to report its bound port.
BOOT_TIMEOUT = 60.0

#: Where spawned replicas listen: the gateway dials them on loopback.
HOST = "127.0.0.1"


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


class Replica:
    """One fleet member as the gateway sees it: endpoint, health, metrics.

    :class:`StaticFleet` uses it as is, for a replica somebody else
    runs (taken to be alive); :class:`ReplicaProcess` adds the process.
    """

    def __init__(self, replica_id: str, host: str) -> None:
        self.replica_id = replica_id
        self.host = host
        self.port: Optional[int] = None
        self.health = EwmaHealth()
        self.epoch = 0  # bumps on every (re)spawn
        self.restarts = 0
        self.ready = False
        self.last_metrics: Dict = {}
        self._client: Optional[DiagnosisClient] = None

    def connect(self, port: int) -> None:
        """Aim the record, and the client its probes use, at ``port``."""
        self.port = port
        self._client = DiagnosisClient(host=self.host, port=port, retries=0, timeout=5.0)

    def close(self) -> None:
        """Close the probe client's pooled connection."""
        if self._client is not None:
            self._client.close()
            self._client = None

    @property
    def alive(self) -> bool:
        return True

    @property
    def endpoint(self) -> Optional[str]:
        if self.ready and self.alive and self.port is not None:
            return f"{self.host}:{self.port}"
        return None

    def probe(self) -> bool:
        """One health poll: ``/readyz`` then ``/metrics?samples=1``.

        Returns True when the replica answered ready and keeps its
        metrics payload for fleet aggregation.  Answering but not ready
        (draining) or shedding means reachable, not routable: False.
        """
        if not self.alive or self._client is None:
            return False
        try:
            self._client.ready()
            self.last_metrics = self._client.metrics(samples=True)
            return True
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


class ReplicaProcess(Replica):
    """One managed ``repro serve`` subprocess and its health state."""

    def __init__(self, replica_id: str, config: ServerConfig) -> None:
        super().__init__(replica_id, HOST)
        self.config = config
        self.process: Optional[subprocess.Popen] = None
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
        self.connect(self._scrape_port())
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
        self.close()
        return process.returncode


class Fleet:
    """The routing and scoring surface the gateway drives.

    Replica ids, endpoints, epochs, request-path health and the
    ``fleet`` block of ``/metrics``; a fleet that spawns nothing has
    nothing to start and no restarts or chaos kills to count.
    """

    def __init__(self, replicas: Dict[str, Replica]) -> None:
        self.replicas = replicas
        self.restarts_total = 0
        self.kills_injected = 0

    @property
    def replica_ids(self) -> List[str]:
        return sorted(self.replicas)

    def start(self) -> None:
        pass

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

    def poll_once(self, tick: int = 0) -> Dict:
        """One supervision pass: probe every replica, score the outcome."""
        for replica in self.replicas.values():
            replica.health.record(replica.probe())
        return {"restarted": [], "killed": []}

    def metrics_snapshots(self) -> List[Dict]:
        """Latest per-replica ``/metrics`` payloads."""
        return [r.last_metrics for r in self.replicas.values() if r.last_metrics]

    def snapshot(self) -> Dict:
        return {
            "replicas": {rid: r.snapshot() for rid, r in self.replicas.items()},
            "restarts_total": self.restarts_total,
            "kills_injected": self.kills_injected,
        }


class ReplicaManager(Fleet):
    """Spawn, score, evict and drain a fleet of server subprocesses."""

    replicas: Dict[str, ReplicaProcess]

    def __init__(self, count: int, config: ServerConfig) -> None:
        if count < 1:
            raise ValueError("need at least one replica")
        super().__init__(
            {f"r{i}": ReplicaProcess(f"r{i}", config) for i in range(count)}
        )
        self._retired_metrics: List[Dict] = []  # final snapshots of evicted runs
        self._lock = threading.Lock()

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
            replica.health.record(replica.probe())
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

    def metrics_snapshots(self) -> List[Dict]:
        """Latest per-replica ``/metrics`` payloads plus retired runs."""
        with self._lock:
            retired = list(self._retired_metrics)
        return retired + super().metrics_snapshots()


class StaticFleet(Fleet):
    """A fixed fleet of externally-run replicas (tests, remote hosts).

    Probes score health, but nothing is evicted or restarted — a down
    replica is simply routed around until it answers again.
    """

    def __init__(self, endpoints: List[str]) -> None:
        if not endpoints:
            raise ValueError("need at least one endpoint")
        replicas: Dict[str, Replica] = {}
        for i, endpoint in enumerate(endpoints):
            host, _, port = endpoint.replace("http://", "").rstrip("/").rpartition(":")
            replica = Replica(f"r{i}", host)
            replica.connect(int(port))
            replica.epoch = 1
            replica.ready = True
            replicas[replica.replica_id] = replica
        super().__init__(replicas)

    def stop(self, grace: float = 30.0) -> None:
        for replica in self.replicas.values():
            replica.close()
