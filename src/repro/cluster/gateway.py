"""The cluster gateway: one front door over a replicated engine fleet.

A single ``repro serve`` process is bounded by one GIL and one warm
cache.  ``repro cluster --replicas N`` scales the same API out: the
gateway owns a :class:`~repro.cluster.replicas.ReplicaManager` fleet of
server subprocesses and an asyncio front end speaking the *same*
HTTP/JSON protocol, so every existing client — ``DiagnosisClient``, the
benchmarks, the smoke scripts — points at the gateway unchanged.

Routing is **content-sharded**: each request's job spec is hashed
(:attr:`~repro.service.jobs.DiagnosisJob.content_hash`) onto a
consistent-hash ring (:class:`~repro.cluster.ring.HashRing`), so one
circuit's traffic always lands on the same replica and that replica's
result cache and learned experience stay hot for
its shard.  ``/v1/batch`` bodies are split into per-replica sub-batches
along the same ring and scatter/gathered concurrently, results
reassembled in job order.

Everything else a production front end owes its callers:

* **failover** — the forwarding client walks the ring's preference
  list: a refused connection or a shed request (503) retries against
  the next replica for that key instead of hammering the dead one;
* **supervision** — a background tick probes every replica's
  ``/readyz`` + ``/metrics``, folds outcomes into per-replica EWMA
  health, and evicts + restarts anything dead or persistently sick
  (the ``cluster.replica_kill`` chaos point exercises exactly this);
* **gossip** — learned experience circulates through the gateway's
  :class:`~repro.cluster.gossip.ExperienceGossip` ledger so every
  replica eventually knows every shop's symptom→failure rules;
* **persistence** — ``--store PATH`` hands every replica the same
  durable sqlite store (``repro.store``): caches and experience
  survive restarts, and the gateway primes its gossip ledger from the
  store at boot so the cluster-wide view never regresses past what
  was already learned;
* **aggregated ``/metrics``** — per-replica telemetry merged by
  :meth:`Telemetry.merge` (counters summed, percentiles recomputed
  from pooled reservoirs) plus ring, fleet-health and gossip state;
* **cascading drain** — SIGTERM stops admission, finishes in-flight
  forwards, then SIGTERMs every replica and joins the subprocesses.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import logging
import re
import signal
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.gossip import ExperienceGossip
from repro.cluster.replicas import ReplicaConfig, ReplicaManager
from repro.cluster.ring import HashRing
from repro.resilience import FaultPlan, faults
from repro.server.client import ClientError, DiagnosisClient, ServerUnavailable
from repro.server.http import (
    HttpError,
    HttpRequest,
    error_payload,
    read_request,
    write_response,
)
from repro.service import ManifestError, job_from_spec
from repro.service.telemetry import Telemetry

__all__ = ["ClusterConfig", "ClusterGateway", "run", "main"]

log = logging.getLogger("repro.cluster")

_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


@dataclass
class ClusterConfig:
    """Everything ``repro cluster`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8090  # 0 = ephemeral (the bound port lands in gateway.port)
    replicas: int = 2
    vnodes: int = 64
    workers: int = 2  # per replica
    queue_size: int = 64
    cache_size: int = 1024
    timeout: float = 30.0  # per-request budget inside each replica
    retries: int = 1  # per-replica crashed-job retries
    client_retries: int = 3  # forwarding attempts = 1 + this (ring failover)
    client_backoff: float = 0.05
    poll_interval: float = 1.0  # replica health tick, seconds
    gossip_interval: float = 2.0  # experience circulation period, seconds
    drain_grace: float = 30.0
    boot_timeout: float = 60.0
    health_decay: float = 0.7
    health_floor: float = 0.3
    supervise: bool = False  # per-replica fleet supervisor
    faults: str = ""  # JSON FaultPlan armed in the *gateway* (cluster.* points)
    replica_faults: str = ""  # JSON FaultPlan forwarded to every replica
    store: str = ""  # shared durable store file, forwarded to every replica
    checkpoint_interval: float = 60.0  # gateway-run WAL checkpoint cadence, seconds
    retain_history_days: float = 30.0  # history age window, days (0 = keep forever)
    retain_history_rows: int = 100_000  # history row bound (0 = unbounded)
    retain_cache_days: float = 0.0  # cache-row age window, days (0 = row bound only)

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("need at least one replica")
        if self.poll_interval <= 0 or self.gossip_interval <= 0:
            raise ValueError("intervals must be positive")
        if self.faults:
            FaultPlan.from_json(self.faults)  # fail fast on a bad plan
        if self.replica_faults:
            FaultPlan.from_json(self.replica_faults)

    def replica_config(self) -> ReplicaConfig:
        return ReplicaConfig(
            workers=self.workers,
            queue_size=self.queue_size,
            cache_size=self.cache_size,
            timeout=self.timeout,
            retries=self.retries,
            supervise=self.supervise,
            faults_json=self.replica_faults,
            store_path=self.store,
            # One maintenance loop per store *file*: the gateway owns it,
            # so N replicas never checkpoint the shared WAL in lockstep.
            lifecycle=False,
        )


class ClusterGateway:
    """Consistent-hash router + supervisor + gossip hub over the fleet.

    ``fleet`` defaults to a subprocess :class:`ReplicaManager` built
    from the config; tests inject a
    :class:`~repro.cluster.replicas.StaticFleet` over in-process
    servers instead — the gateway never knows the difference.
    """

    def __init__(self, config: ClusterConfig, fleet=None):
        self.config = config
        self.fleet = fleet if fleet is not None else ReplicaManager(
            config.replicas,
            config=config.replica_config(),
            health_decay=config.health_decay,
            health_floor=config.health_floor,
            boot_timeout=config.boot_timeout,
        )
        self.ring = HashRing(self.fleet.replica_ids, vnodes=config.vnodes)
        self.gossip = ExperienceGossip()
        self.telemetry = Telemetry()
        self.maintenance = None
        self._store = None
        if config.store:
            self._seed_gossip_from_store(config.store)
            self._build_maintenance(config)
        self._local = threading.local()  # one forwarding client per thread
        width = max(4, config.replicas * config.workers + 2)
        self._forward = ThreadPoolExecutor(width, thread_name_prefix="forward")
        self._control = ThreadPoolExecutor(2, thread_name_prefix="cluster-ctl")
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()
        self._loops: List[asyncio.Task] = []
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._shutdown = asyncio.Event()
        self._draining = False
        self._started = time.monotonic()
        self._request_ids = itertools.count(1)
        self._id_prefix = uuid.uuid4().hex[:8]
        self.port: Optional[int] = None

    def _seed_gossip_from_store(self, path: str) -> None:
        """Prime the gossip ledger from the durable store at boot.

        The gateway only *reads* the store — replicas own the writes
        (each learner persists its own episodes; gossip deliveries are
        never re-persisted) — so the connection opens, seeds, closes.
        A fresh or empty store seeds nothing.
        """
        from repro.store import PUBLIC_TENANT, DiagnosisStore

        store = DiagnosisStore(path)
        try:
            data, _version = store.load_experience(PUBLIC_TENANT)
        finally:
            store.close()
        seeded = self.gossip.seed(data)
        if seeded:
            self.telemetry.incr("gossip_seeded_occurrences", seeded)
            log.info(
                json.dumps(
                    {"event": "gossip_seeded", "occurrences": seeded, "store": path}
                )
            )

    def _build_maintenance(self, config: ClusterConfig) -> None:
        """The gateway is the fleet's single maintenance owner.

        Replicas run with the lifecycle disabled (see
        ``replica_config``); the gateway opens its own connection to the
        shared file and checkpoints/retains on behalf of everyone.  WAL
        checkpointing is cooperative across connections, so the
        replicas' writes are what this loop flushes.
        """
        from repro.store import (
            DiagnosisStore,
            LifecycleConfig,
            RetentionPolicy,
            StoreMaintenance,
        )

        self._store = DiagnosisStore(config.store)
        self.maintenance = StoreMaintenance(
            self._store,
            LifecycleConfig(
                checkpoint_interval=config.checkpoint_interval,
                retention=RetentionPolicy(
                    history_max_age=config.retain_history_days * 86400.0,
                    history_max_rows=config.retain_history_rows,
                    cache_max_age=config.retain_cache_days * 86400.0,
                ),
            ),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Boot the fleet, then bind (resolves ``self.port``)."""
        self._started = time.monotonic()
        self._idle.set()
        if self.maintenance is not None:
            self.maintenance.start()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._control, self.fleet.start)
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        log.info(
            json.dumps(
                {
                    "event": "cluster_listening",
                    "host": self.config.host,
                    "port": self.port,
                    "replicas": sorted(self.fleet.ready_endpoints().items()),
                    "vnodes": self.config.vnodes,
                }
            )
        )

    def request_shutdown(self) -> None:
        if not self._draining:
            self._draining = True
            self.telemetry.event("cluster_drain_begin")
            self._shutdown.set()

    async def serve(self) -> None:
        """Run until a shutdown is requested, then cascade the drain."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        self._loops = [
            asyncio.ensure_future(self._supervise_loop()),
            asyncio.ensure_future(self._gossip_loop()),
        ]
        try:
            await self._shutdown.wait()
        finally:
            await self._drain()

    async def _drain(self) -> None:
        """Stop admitting → finish forwards → drain replicas → join."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=self.config.drain_grace)
            drained = True
        except asyncio.TimeoutError:
            drained = False
        for task in self._loops:
            task.cancel()
        if self._loops:
            await asyncio.gather(*self._loops, return_exceptions=True)
        connections = [conn for conn in self._connections if not conn.done()]
        for conn in connections:
            conn.cancel()
        if connections:
            await asyncio.gather(*connections, return_exceptions=True)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            self._control, self.fleet.stop, self.config.drain_grace
        )
        self._forward.shutdown(wait=drained)
        self._control.shutdown(wait=True)
        if self.maintenance is not None:
            # Final checkpoint after every replica has flushed and exited.
            self.maintenance.stop(final_tick=True)
        if self._store is not None:
            self._store.close()
        self.telemetry.event("cluster_drain_end", clean=drained)
        log.info(
            json.dumps(
                {
                    "event": "cluster_drained",
                    "clean": drained,
                    "uptime_seconds": round(time.monotonic() - self._started, 3),
                    "restarts": self.fleet.snapshot().get("restarts_total", 0),
                }
            )
        )
        log.info(self.telemetry.summary(title="cluster telemetry"))

    # ------------------------------------------------------------------
    # Background loops
    # ------------------------------------------------------------------
    async def _supervise_loop(self) -> None:
        loop = asyncio.get_running_loop()
        tick = 0
        while not self._draining:
            await asyncio.sleep(self.config.poll_interval)
            tick += 1
            try:
                events = await loop.run_in_executor(
                    self._control, self.fleet.poll_once, tick
                )
            except asyncio.CancelledError:
                raise
            except Exception:
                log.exception("supervision tick %d failed", tick)
                continue
            for rid in events.get("killed", ()):
                self.telemetry.incr("chaos_replica_kills")
                self.telemetry.event("replica_killed", replica=rid)
            for rid in events.get("restarted", ()):
                self.telemetry.incr("replica_restarts")
                self.telemetry.event("replica_restarted", replica=rid)

    async def _gossip_loop(self) -> None:
        loop = asyncio.get_running_loop()
        round_no = 0
        while not self._draining:
            await asyncio.sleep(self.config.gossip_interval)
            round_no += 1
            try:
                await loop.run_in_executor(self._control, self.gossip_round, round_no)
            except asyncio.CancelledError:
                raise
            except Exception:
                log.exception("gossip round %d failed", round_no)

    def gossip_round(self, round_no: int = 0) -> None:
        """One full circulation (blocking; also the tests' entry point).

        Pass 1 pulls every live replica's snapshot into the ledger;
        pass 2 pushes each replica the delta it is missing — so a rule
        learned on one replica reaches every other within one round.
        """
        self.gossip.note_round()
        client = self._client()
        live = sorted(self.fleet.ready_endpoints().items())
        for rid, endpoint in live:
            try:
                snapshot = client.experience(endpoints=[endpoint])
            except (ClientError, OSError):
                continue
            fresh = self.gossip.observe(rid, self.fleet.epoch(rid), snapshot)
            if fresh:
                self.telemetry.incr("gossip_occurrences_learned", fresh)
        for rid, endpoint in live:
            delta = self.gossip.pending(rid)
            if delta is None:
                continue
            if faults.maybe_fire("cluster.gossip_drop", key=f"{rid}#{round_no}"):
                self.gossip.note_drop()
                self.telemetry.incr("gossip_dropped")
                continue
            try:
                client.merge_experience(delta, endpoints=[endpoint])
            except (ClientError, OSError):
                continue  # undelivered: stays pending, retried next round
            self.gossip.mark_delivered(rid, delta, epoch=self.fleet.epoch(rid))
            self.telemetry.incr("gossip_deliveries")

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def _client(self) -> DiagnosisClient:
        client = getattr(self._local, "client", None)
        if client is None:
            client = DiagnosisClient(
                retries=self.config.client_retries,
                backoff=self.config.client_backoff,
                timeout=self.config.timeout * 1.5 + 5.0,
            )
            self._local.client = client
        return client

    def _targets(self, key: str) -> List[Tuple[str, str]]:
        """``(replica_id, endpoint)`` for ``key`` in failover order."""
        live = self.fleet.ready_endpoints()
        ordered = [
            (rid, live[rid]) for rid in self.ring.preference(key) if rid in live
        ]
        if not ordered:
            raise HttpError(503, "no replicas available", {"Retry-After": "1"})
        return ordered

    def _note_answer(self, targets: List[Tuple[str, str]], client: DiagnosisClient) -> None:
        """Credit the replica that answered; count ring failovers."""
        answered = client.last_endpoint
        if answered is None:
            return
        endpoint = f"{answered[0]}:{answered[1]}"
        for position, (rid, target) in enumerate(targets):
            if target == endpoint:
                self.fleet.note_outcome(rid, True)
                self.telemetry.incr(f"routed.{rid}")
                if position:
                    self.telemetry.incr("ring_failovers")
                return

    # ------------------------------------------------------------------
    # Connection handling (same framing as the single server)
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    await write_response(
                        writer, exc.status, error_payload(exc.status, exc.message),
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _request_id(self, request: HttpRequest) -> str:
        supplied = request.headers.get("x-request-id", "")
        if supplied and _REQUEST_ID_RE.match(supplied):
            return supplied
        return f"gw-{self._id_prefix}-{next(self._request_ids):06d}"

    async def _dispatch(self, request: HttpRequest, writer) -> bool:
        request_id = self._request_id(request)
        started = time.perf_counter()
        self._inflight += 1
        self._idle.clear()
        status = 500
        extra = {"X-Request-Id": request_id}
        keep_alive = request.keep_alive and not self._draining
        try:
            status, payload, headers = await self._route(request, request_id)
            extra.update(headers)
        except HttpError as exc:
            status = exc.status
            payload = error_payload(exc.status, exc.message, request_id)
            extra.update(exc.headers)
        except ClientError as exc:
            # A replica's own answer (400/401/429/504/terminal 503)
            # passes through untouched — the gateway adds routing, not
            # opinions.  Retry-After rides along so a quota 429's
            # refill-rate hint survives the hop.
            status = exc.status
            payload = exc.payload
            if exc.retry_after is not None:
                extra["Retry-After"] = exc.retry_after
            if isinstance(payload, dict):
                payload.setdefault("request_id", request_id)
        except Exception as exc:
            status = 500
            payload = error_payload(500, f"{type(exc).__name__}: {exc}", request_id)
            log.exception("request %s failed", request_id)
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
        elapsed = time.perf_counter() - started
        self.telemetry.incr("http_requests")
        self.telemetry.incr(f"http_status_{status}")
        self.telemetry.observe(f"http_seconds_{request.method} {request.path}", elapsed)
        log.info(
            json.dumps(
                {
                    "request_id": request_id,
                    "method": request.method,
                    "path": request.path,
                    "status": status,
                    "elapsed_ms": round(elapsed * 1000, 3),
                    "inflight": self._inflight,
                }
            )
        )
        try:
            await write_response(writer, status, payload, keep_alive, extra)
        except (ConnectionResetError, BrokenPipeError):
            return False
        return keep_alive

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    async def _route(
        self, request: HttpRequest, request_id: str
    ) -> Tuple[int, object, Dict[str, str]]:
        path, method = request.path, request.method
        if path == "/healthz":
            if method != "GET":
                raise HttpError(405, "use GET", {"Allow": "GET"})
            return 200, {
                "status": "ok",
                "uptime_seconds": self._uptime(),
                "replicas_ready": len(self.fleet.ready_endpoints()),
            }, {}
        if path == "/readyz":
            if method != "GET":
                raise HttpError(405, "use GET", {"Allow": "GET"})
            if self._draining:
                return 503, {"status": "draining"}, {}
            ready = len(self.fleet.ready_endpoints())
            if not ready:
                return 503, {"status": "no replicas ready"}, {}
            payload: Dict[str, object] = {"status": "ready", "replicas_ready": ready}
            if self.maintenance is not None:
                payload["lifecycle"] = self.maintenance.snapshot()
            return 200, payload, {}
        if path == "/metrics":
            if method != "GET":
                raise HttpError(405, "use GET", {"Allow": "GET"})
            samples = request.query.get("samples", "") in ("1", "true", "yes")
            return 200, self._metrics(samples=samples), {}
        if path == "/v1/experience":
            if method != "GET":
                raise HttpError(405, "use GET", {"Allow": "GET"})
            return 200, self.gossip.export(), {}
        if path == "/v1/diagnose":
            if method != "POST":
                raise HttpError(405, "use POST", {"Allow": "POST"})
            return await self._handle_diagnose(request, request_id)
        if path == "/v1/batch":
            if method != "POST":
                raise HttpError(405, "use POST", {"Allow": "POST"})
            return await self._handle_batch(request, request_id)
        raise HttpError(404, f"no route {path!r}")

    def _uptime(self) -> float:
        return round(time.monotonic() - self._started, 3)

    def _metrics(self, samples: bool = False) -> Dict:
        """Gateway state + the fleet's telemetry merged into one view."""
        replica_metrics = self.fleet.metrics_snapshots()
        telemetries = [
            snap["telemetry"]
            for snap in replica_metrics
            if isinstance(snap.get("telemetry"), dict)
        ]
        return {
            "gateway": {
                "uptime_seconds": self._uptime(),
                "draining": self._draining,
                "inflight": self._inflight,
            },
            "ring": self.ring.snapshot(),
            "fleet": self.fleet.snapshot(),
            "gossip": self.gossip.snapshot(),
            "lifecycle": (
                self.maintenance.snapshot() if self.maintenance is not None else None
            ),
            "cluster_telemetry": (
                Telemetry.merge(telemetries) if telemetries else None
            ),
            "telemetry": self.telemetry.snapshot(samples=samples),
        }

    def _reject_if_draining(self) -> None:
        if self._draining:
            raise HttpError(503, "cluster is draining", {"Retry-After": "1"})

    @staticmethod
    def _forward_headers(request: HttpRequest) -> Optional[Dict[str, str]]:
        """The caller's credentials, passed through to the replica.

        The gateway does not resolve tenants itself — replicas own auth
        and (store-backed) quota enforcement, and since every replica
        debits the same ``quota_buckets`` row, forwarding the identity
        is all it takes for the fleet to share one budget per tenant.
        """
        headers = {}
        auth = request.headers.get("authorization", "")
        if auth:
            headers["Authorization"] = auth
        api_key = request.headers.get("x-api-key", "")
        if api_key:
            headers["X-Api-Key"] = api_key
        return headers or None

    async def _handle_diagnose(
        self, request: HttpRequest, request_id: str
    ) -> Tuple[int, object, Dict[str, str]]:
        self._reject_if_draining()
        spec = request.json()
        try:
            job = job_from_spec(spec, index=0)
        except ManifestError as exc:
            raise HttpError(400, str(exc)) from None
        targets = self._targets(job.content_hash)
        tracing = request.query.get("trace", "") in ("1", "true", "yes")
        credentials = self._forward_headers(request)
        loop = asyncio.get_running_loop()

        def forward() -> Dict:
            client = self._client()
            try:
                data = client.diagnose(
                    spec,
                    trace=tracing,
                    endpoints=[e for _, e in targets],
                    headers=credentials,
                )
            except ServerUnavailable:
                self.fleet.note_outcome(targets[0][0], False)
                raise
            self._note_answer(targets, client)
            return data

        payload = await loop.run_in_executor(self._forward, forward)
        payload["request_id"] = request_id
        return 200, payload, {}

    async def _handle_batch(
        self, request: HttpRequest, request_id: str
    ) -> Tuple[int, object, Dict[str, str]]:
        self._reject_if_draining()
        body = request.json()
        specs = body.get("jobs") if isinstance(body, dict) else body
        if not isinstance(specs, list) or not specs:
            raise HttpError(400, "batch body needs a non-empty 'jobs' list")
        try:
            jobs = [job_from_spec(spec, index) for index, spec in enumerate(specs)]
        except ManifestError as exc:
            raise HttpError(400, str(exc)) from None
        started = time.perf_counter()
        # Shard the batch along the ring: each job joins its primary
        # replica's sub-batch (with that key's failover order attached).
        shards: Dict[str, Dict] = {}
        for index, job in enumerate(jobs):
            targets = self._targets(job.content_hash)
            shard = shards.setdefault(
                targets[0][0], {"targets": targets, "indices": []}
            )
            shard["indices"].append(index)
        credentials = self._forward_headers(request)
        loop = asyncio.get_running_loop()

        def forward(shard: Dict) -> Dict:
            client = self._client()
            targets = shard["targets"]
            subset = [specs[i] for i in shard["indices"]]
            try:
                data = client.batch(
                    subset, endpoints=[e for _, e in targets], headers=credentials
                )
            except ServerUnavailable:
                self.fleet.note_outcome(targets[0][0], False)
                raise
            self._note_answer(targets, client)
            return data

        answers = await asyncio.gather(
            *(
                loop.run_in_executor(self._forward, forward, shard)
                for shard in shards.values()
            )
        )
        results: List[Optional[Dict]] = [None] * len(specs)
        cache: Dict[str, int] = {}
        rules_learned = 0
        for shard, answer in zip(shards.values(), answers):
            for position, index in enumerate(shard["indices"]):
                results[index] = answer["results"][position]
            for key, value in (answer.get("cache") or {}).items():
                if isinstance(value, (int, float)):
                    cache[key] = cache.get(key, 0) + value
            rules_learned += int(answer.get("rules_learned", 0))
        payload = {
            "request_id": request_id,
            "results": results,
            "cache": cache,
            "wall_clock": round(time.perf_counter() - started, 6),
            "rules_learned": rules_learned,
            "shards": {rid: len(shard["indices"]) for rid, shard in shards.items()},
        }
        return 200, payload, {}


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run(config: ClusterConfig) -> int:
    """Blocking entry point: serve until SIGTERM/SIGINT, drain, return 0."""
    if config.faults:
        faults.install_plan(FaultPlan.from_json(config.faults))
    gateway = ClusterGateway(config)
    try:
        asyncio.run(gateway.serve())
    finally:
        if config.faults:
            faults.uninstall_plan()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cluster",
        description="serve FLAMES diagnosis from a sharded replica fleet",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=8090, help="gateway port; 0 picks an ephemeral port"
    )
    parser.add_argument(
        "--replicas", type=int, default=2, help="server subprocesses to run (default 2)"
    )
    parser.add_argument(
        "--vnodes", type=int, default=64,
        help="virtual nodes per replica on the hash ring (default 64)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="diagnosis slots per replica (default 2)"
    )
    parser.add_argument(
        "--queue-size", type=int, default=64,
        help="admission queue depth per replica (default 64)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=1024,
        help="result-cache capacity per replica (default 1024)",
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request budget in seconds (default 30)",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="per-replica crashed-job retries (default 1)",
    )
    parser.add_argument(
        "--poll-interval", type=float, default=1.0,
        help="replica health-poll period in seconds (default 1)",
    )
    parser.add_argument(
        "--gossip-interval", type=float, default=2.0,
        help="experience gossip period in seconds (default 2)",
    )
    parser.add_argument(
        "--supervise", action="store_true",
        help="engage the fleet supervisor inside every replica",
    )
    parser.add_argument(
        "--faults", default="",
        help="JSON fault plan armed in the gateway (cluster.replica_kill / "
        "cluster.gossip_drop chaos)",
    )
    parser.add_argument(
        "--replica-faults", default="",
        help="JSON fault plan forwarded to every replica subprocess",
    )
    parser.add_argument(
        "--store", default="",
        help="durable sqlite store shared by every replica (caches and "
        "experience survive restarts; the gateway seeds gossip from it)",
    )
    parser.add_argument(
        "--checkpoint-interval", type=float, default=60.0,
        help="gateway-run WAL checkpoint cadence in seconds (default 60; 0 never)",
    )
    parser.add_argument(
        "--retain-history", type=float, default=30.0, metavar="DAYS",
        help="drop history rows older than DAYS (default 30; 0 keeps forever)",
    )
    parser.add_argument(
        "--retain-history-rows", type=int, default=100_000, metavar="N",
        help="keep at most N history rows (default 100000; 0 unbounded)",
    )
    parser.add_argument(
        "--retain-cache", type=float, default=0.0, metavar="DAYS",
        help="drop cache rows older than DAYS (default 0: row bound only)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    try:
        config = ClusterConfig(
            host=args.host,
            port=args.port,
            replicas=args.replicas,
            vnodes=args.vnodes,
            workers=args.workers,
            queue_size=args.queue_size,
            cache_size=args.cache_size,
            timeout=args.timeout,
            retries=args.retries,
            poll_interval=args.poll_interval,
            gossip_interval=args.gossip_interval,
            supervise=args.supervise,
            faults=args.faults,
            replica_faults=args.replica_faults,
            store=args.store,
            checkpoint_interval=args.checkpoint_interval,
            retain_history_days=args.retain_history,
            retain_history_rows=args.retain_history_rows,
            retain_cache_days=args.retain_cache,
        )
    except ValueError as exc:
        print(f"bad cluster options: {exc}", flush=True)
        return 2
    return run(config)
