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

import asyncio
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.gossip import ExperienceGossip
from repro.cluster.replicas import ReplicaManager
from repro.cluster.ring import HashRing
from repro.resilience import FaultPlan, faults
from repro.server.app import ServerConfig
from repro.server.client import ClientError, DiagnosisClient, ServerUnavailable
from repro.server.http import DRAIN_GRACE, HttpError, HttpRequest, HttpService
from repro.service import ManifestError, job_from_spec
from repro.service.telemetry import Telemetry

__all__ = ["ClusterConfig", "ClusterGateway", "run"]

log = logging.getLogger("repro.cluster")

#: Forwarding attempts = 1 + this (ring failover).
CLIENT_RETRIES = 3

#: Base delay of the forwarding client's backoff, seconds.
CLIENT_BACKOFF = 0.05


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
    poll_interval: float = 1.0  # replica health tick, seconds
    gossip_interval: float = 2.0  # experience circulation period, seconds
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
        self.replica_config()  # and on bad per-replica settings

    def replica_config(self) -> ServerConfig:
        """The ``repro serve`` settings every replica subprocess runs with."""
        return ServerConfig(
            port=0,
            workers=self.workers,
            queue_size=self.queue_size,
            cache_size=self.cache_size,
            timeout=self.timeout,
            retries=self.retries,
            supervise=self.supervise,
            faults=self.replica_faults,
            # One shared store file for the whole fleet: sqlite WAL
            # handles the cross-process writers, and every respawn
            # restores from it.
            store=self.store,
            # One maintenance loop per store *file*: the gateway owns it,
            # so N replicas never checkpoint the shared WAL in lockstep.
            lifecycle=False,
        )


class ClusterGateway(HttpService):
    """Consistent-hash router + supervisor + gossip hub over the fleet.

    ``fleet`` defaults to a subprocess :class:`ReplicaManager` built
    from the config; tests inject a
    :class:`~repro.cluster.replicas.StaticFleet` over in-process
    servers instead — the gateway never knows the difference.
    """

    kind = "cluster"
    listening_event = "cluster_listening"
    drained_event = "cluster_drained"
    log = logging.getLogger("repro.cluster")

    def __init__(self, config: ClusterConfig, fleet=None):
        super().__init__(config, Telemetry(), id_prefix="gw-")
        self.fleet = fleet if fleet is not None else ReplicaManager(
            config.replicas, config=config.replica_config()
        )
        self.ring = HashRing(self.fleet.replica_ids, vnodes=config.vnodes)
        self.gossip = ExperienceGossip()
        self.maintenance = None
        self._store = None
        if config.store:
            self._seed_gossip_from_store(config.store)
            self._build_maintenance(config)
        self._local = threading.local()  # one forwarding client per thread
        self._clients: List[DiagnosisClient] = []  # every one, for teardown
        width = max(4, config.replicas * config.workers + 2)
        self._forward = ThreadPoolExecutor(width, thread_name_prefix="forward")
        self._control = ThreadPoolExecutor(2, thread_name_prefix="cluster-ctl")
        self.route("/v1/experience", GET=self._experience_get)
        self.route("/v1/diagnose", POST=self._handle_diagnose)
        self.route("/v1/batch", POST=self._handle_batch)

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
        from repro.store import DiagnosisStore, LifecycleConfig, StoreMaintenance

        self._store = DiagnosisStore(config.store)
        self.maintenance = StoreMaintenance(
            self._store, LifecycleConfig.from_settings(config)
        )

    # ------------------------------------------------------------------
    # Service hooks
    # ------------------------------------------------------------------
    async def _boot(self) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._control, self.fleet.start)

    def _listening_fields(self) -> Dict[str, object]:
        return {
            "replicas": sorted(self.fleet.ready_endpoints().items()),
            "vnodes": self.config.vnodes,
        }

    def _background(self):
        return [self._supervise_loop(), self._gossip_loop()]

    async def _teardown(self, drained: bool) -> None:
        """Drain the replicas and join them, then the gateway's own pools."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._control, self.fleet.stop, DRAIN_GRACE)
        self._forward.shutdown(wait=drained)
        self._control.shutdown(wait=True)
        for client in self._clients:
            client.close()
        if self.maintenance is not None:
            # Final checkpoint after every replica has flushed and exited.
            self.maintenance.stop(final_tick=True)
        if self._store is not None:
            self._store.close()

    def _drained_fields(self) -> Dict[str, object]:
        return {"restarts": self.fleet.snapshot().get("restarts_total", 0)}

    def _error_response(
        self, exc: Exception, request_id: str
    ) -> Tuple[int, object, Dict[str, str]]:
        if not isinstance(exc, ClientError):
            return super()._error_response(exc, request_id)
        # A replica's own answer (400/401/429/504/terminal 503) passes
        # through untouched — the gateway adds routing, not opinions.
        # Retry-After rides along so a quota 429's refill-rate hint
        # survives the hop.
        payload = exc.payload
        if isinstance(payload, dict):
            payload.setdefault("request_id", request_id)
        headers = {"Retry-After": exc.retry_after} if exc.retry_after is not None else {}
        return exc.status, payload, headers

    # ------------------------------------------------------------------
    # Background loops    # ------------------------------------------------------------------
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

    def gossip_round(self, round_no: int) -> None:
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
                retries=CLIENT_RETRIES,
                backoff=CLIENT_BACKOFF,
                timeout=self.config.timeout * 1.5 + 5.0,
            )
            self._local.client = client
            self._clients.append(client)
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
    # Routes
    # ------------------------------------------------------------------
    async def _healthz(self, request: HttpRequest, request_id: str):
        return 200, {
            "status": "ok",
            "uptime_seconds": self._uptime(),
            "replicas_ready": len(self.fleet.ready_endpoints()),
        }, {}

    def _readiness(self) -> Tuple[int, Dict[str, object]]:
        ready = len(self.fleet.ready_endpoints())
        if not ready:
            return 503, {"status": "no replicas ready"}
        return 200, {"status": "ready", "replicas_ready": ready}

    async def _experience_get(self, request: HttpRequest, request_id: str):
        return 200, self.gossip.export(), {}

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

    @staticmethod
    def _forward_headers(request: HttpRequest, request_id: str) -> Dict[str, str]:
        """The request id and the caller's credentials, for the replica.

        Forwarding the id makes the replica adopt it as its own request
        id and trace id, so gateway and replica logs join on one id.
        The gateway does not resolve tenants itself — replicas own auth
        and (store-backed) quota enforcement, and since every replica
        debits the same ``quota_buckets`` row, forwarding the identity
        is all it takes for the fleet to share one budget per tenant.
        """
        headers = {"X-Request-Id": request_id}
        auth = request.headers.get("authorization", "")
        if auth:
            headers["Authorization"] = auth
        api_key = request.headers.get("x-api-key", "")
        if api_key:
            headers["X-Api-Key"] = api_key
        return headers

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
        forwarded = self._forward_headers(request, request_id)
        loop = asyncio.get_running_loop()

        def forward() -> Dict:
            client = self._client()
            try:
                data = client.diagnose(
                    spec,
                    trace=tracing,
                    endpoints=[e for _, e in targets],
                    headers=forwarded,
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
        forwarded = self._forward_headers(request, request_id)
        loop = asyncio.get_running_loop()

        def forward(shard: Dict) -> Dict:
            client = self._client()
            targets = shard["targets"]
            subset = [specs[i] for i in shard["indices"]]
            try:
                data = client.batch(
                    subset, endpoints=[e for _, e in targets], headers=forwarded
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
