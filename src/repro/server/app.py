"""The diagnosis server: a long-lived owner of the fleet engine.

One process keeps a warm :class:`~repro.service.FleetEngine` — its
content-addressed :class:`~repro.service.ResultCache`, shared
:class:`~repro.service.Telemetry` and learned
:class:`~repro.core.learning.ExperienceBase` — resident, and serves
diagnosis over HTTP/JSON (stdlib asyncio only):

* ``POST /v1/diagnose`` — one job (the batch-manifest job spec shape,
  netlist inlined as ``netlist_text``) → one JobResult;
* ``POST /v1/batch``    — ``{"jobs": [...]}`` fanned out through the
  engine's worker pool → results in job order;
* ``GET /healthz``      — liveness;
* ``GET /readyz``       — readiness (503 while draining);
* ``GET /metrics``      — telemetry + cache + admission-queue snapshot
  (``?samples=1`` adds percentile reservoirs for cluster aggregation);
* ``GET /v1/stream``    — Server-Sent Events: a live-simulated unit
  (optionally faulted mid-stream, see :mod:`repro.server.stream`) is
  watched by a :class:`~repro.stream.session.StreamingSession` and each
  incremental re-diagnosis is framed as an ``update`` event with a
  per-connection monotonic ``id:``, interleaved with ``heartbeat``
  events during quiet stretches and closed by a terminal ``end`` event
  (``reason`` = ``complete`` or ``drain``);
* ``GET/POST /v1/experience`` — the gossip surface: read the engine's
  shared :class:`~repro.core.learning.ExperienceBase` (rules restored
  from a persistence store carry ``seed_occurrences``), or merge a
  peer replica's delta into it (noisy-or ``merge()`` semantics);
* ``GET /v1/tenants/{id}/report`` — fleet-health summary over the
  tenant's persisted diagnosis history (requires ``--store`` and the
  tenant's own API key).

**Tenancy** (requires ``--store``, see :mod:`repro.store`): requests
may authenticate with ``Authorization: Bearer <key>`` or ``X-Api-Key``.
A resolved tenant gets isolated cache/experience namespaces threaded
through the engine and a store-backed token-bucket request quota
(breach → ``429`` with ``Retry-After``); an unknown key is a ``401``; requests without
credentials stay in the shared public namespace, byte-identical to the
pre-tenant behavior.

Operational behaviour, in one place:

* **admission control** — at most ``workers`` requests execute at once
  (CPU-bound work runs on a thread-pool executor of that width) and at
  most ``queue_size`` more may wait; beyond that the server sheds load
  with ``503`` + ``Retry-After`` (see :mod:`repro.server.queueing`);
* **per-request deadline** — every diagnose request runs under a
  :class:`~repro.runtime.context.RunContext` whose deadline is the
  server's ``timeout`` budget, threaded down to the propagator's
  fixpoint loop.  A run that exhausts the budget winds down
  cooperatively and the response is ``504`` carrying the *partial*
  (well-formed, uncached) result; if the event loop's own timer fires
  first, the context is **cancelled** so the worker thread stops
  burning CPU instead of finishing in the background;
* **trace joins** — a client-supplied ``X-Request-Id`` header (when
  well-formed) becomes the request id *and* the engine trace id, so
  retried attempts of one logical request correlate across logs and
  span trees; ``?trace=1`` on ``/v1/diagnose`` returns the engine's
  span tree in the response payload;
* **graceful drain** — SIGTERM/SIGINT stops accepting connections,
  answers in-flight requests, flushes a final telemetry summary to the
  log, then exits 0;
* **structured logging** — one JSON line per request with the request
  id (also echoed in the ``X-Request-Id`` response header), method,
  path, status, queue wait and handling time.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import logging
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.db import TenantRecord

from repro.resilience import FaultPlan, FleetSupervisor, faults
from repro.runtime.context import RunContext
from repro.server.http import (
    HttpError,
    HttpRequest,
    HttpService,
    error_payload,
    render_stream_head,
    write_response,
)
from repro.server.queueing import AdmissionQueue, QueueFullError
from repro.server.stream import StreamRunner, StreamSpec
from repro.stream.sse import format_event
from repro.service import FleetEngine, ManifestError, job_from_spec
from repro.service.jobs import DiagnosisJob

__all__ = ["ServerConfig", "DiagnosisServer", "run"]

log = logging.getLogger("repro.server")

#: The fleet-health reporting route: GET /v1/tenants/{id}/report.
_TENANT_REPORT_RE = re.compile(r"^/v1/tenants/([^/]+)/report$")


@dataclass
class ServerConfig:
    """Everything ``repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8080  # 0 = ephemeral (the bound port lands in server.port)
    workers: int = 4
    queue_size: int = 64
    cache_size: int = 1024
    timeout: float = 30.0  # per-request budget, seconds
    retries: int = 1
    max_streams: int = 4  # concurrent /v1/stream connections
    heartbeat: float = 5.0  # SSE keep-alive cadence during quiet stretches, seconds
    supervise: bool = False  # engage the FleetSupervisor (quarantine + health)
    faults: str = ""  # JSON FaultPlan armed server-wide (chaos testing only)
    store: str = ""  # sqlite persistence-plane path; "" = in-memory only
    lifecycle: bool = True  # run StoreMaintenance (cluster replicas turn it off)
    checkpoint_interval: float = 60.0  # WAL checkpoint cadence, seconds (0 = never)
    retain_history_days: float = 30.0  # history age window, days (0 = keep forever)
    retain_history_rows: int = 100_000  # history row bound (0 = unbounded)
    retain_cache_days: float = 0.0  # cache-row age window, days (0 = row bound only)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.queue_size < 0:
            raise ValueError("queue size must be non-negative")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_streams < 0:
            raise ValueError("max_streams must be non-negative")
        if self.heartbeat <= 0:
            raise ValueError("heartbeat must be positive")
        if self.faults:
            FaultPlan.from_json(self.faults)  # fail fast on a bad plan

    def to_argv(self) -> List[str]:
        """The ``repro serve`` arguments that rebuild this config.

        Used to spawn cluster replicas; every field has a flag.
        """
        argv = [
            "--host", self.host,
            "--port", str(self.port),
            "--workers", str(self.workers),
            "--queue-size", str(self.queue_size),
            "--cache-size", str(self.cache_size),
            "--timeout", str(self.timeout),
            "--retries", str(self.retries),
            "--max-streams", str(self.max_streams),
            "--heartbeat", str(self.heartbeat),
            "--checkpoint-interval", str(self.checkpoint_interval),
            "--retain-history", str(self.retain_history_days),
            "--retain-history-rows", str(self.retain_history_rows),
            "--retain-cache", str(self.retain_cache_days),
        ]
        if self.supervise:
            argv.append("--supervise")
        if not self.lifecycle:
            argv.append("--no-lifecycle")
        if self.faults:
            argv.extend(["--faults", self.faults])
        if self.store:
            argv.extend(["--store", self.store])
        return argv


class DiagnosisServer(HttpService):
    """Asyncio HTTP front end over a shared, warm fleet engine."""

    def __init__(self, config: ServerConfig, engine: Optional[FleetEngine] = None):
        # The persistence plane is entirely optional: without --store the
        # server is byte-identical to the in-memory-only build and none
        # of repro.store is even imported.
        self.store = None
        self.tenants = None
        self.quotas = None
        self.maintenance = None
        if config.store:
            from repro.store import DiagnosisStore, TenantRegistry, TokenBucketQuota

            self.store = DiagnosisStore(config.store)
            self.tenants = TenantRegistry(self.store)
            # Store-backed token buckets: every replica sharing the file
            # debits the same per-tenant budget.
            self.quotas = TokenBucketQuota(self.store)
            if config.lifecycle:
                from repro.store import LifecycleConfig, StoreMaintenance

                self.maintenance = StoreMaintenance(
                    self.store, LifecycleConfig.from_settings(config)
                )
        self.engine = engine or FleetEngine(
            workers=config.workers,
            executor="thread",
            retries=config.retries,
            cache_size=config.cache_size,
            supervisor=FleetSupervisor() if config.supervise else None,
            fault_plan=FaultPlan.from_json(config.faults) if config.faults else None,
            store=self.store,
        )
        super().__init__(config, self.engine.telemetry)
        self.admission = AdmissionQueue(config.workers, config.queue_size)
        self._executor = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="diagnose"
        )
        # Streams are long-lived; giving them their own executor keeps a
        # saturated stream fleet from starving one-shot diagnose slots.
        self._stream_executor = ThreadPoolExecutor(
            max_workers=max(1, config.max_streams), thread_name_prefix="stream"
        )
        self._streams_active = 0
        self._mean_job_seconds = 0.1  # EWMA; seeds the Retry-After estimate
        self._io_seq = itertools.count(1)  # deterministic server.io chaos key
        self.route("/v1/experience", GET=self._experience_get, POST=self._handle_experience_merge)
        self.route("/v1/diagnose", POST=self._handle_diagnose)
        self.route("/v1/batch", POST=self._handle_batch)
        # SSE owns its writer (incremental frames, no Content-Length), so
        # it bypasses the buffered request/response path entirely.
        self.raw_route("/v1/stream", self._handle_stream)

    # ------------------------------------------------------------------
    # Service hooks
    # ------------------------------------------------------------------
    def _listening_fields(self) -> Dict[str, object]:
        return {"workers": self.config.workers, "queue_size": self.config.queue_size}

    def _drained_fields(self) -> Dict[str, object]:
        return {"admitted": self.admission.admitted, "rejected": self.admission.rejected}

    def _access_fields(self) -> Dict[str, object]:
        return {"queued": self.admission.waiting}

    async def _teardown(self, drained: bool) -> None:
        self._executor.shutdown(wait=drained)
        self._stream_executor.shutdown(wait=drained)
        if self.maintenance is not None:
            # Final tick: leave the WAL checkpointed behind us.
            self.maintenance.stop(final_tick=True)
        if self.store is not None:
            self.store.close()

    def _before_dispatch(self, request: HttpRequest) -> None:
        # Chaos hook: an injected dispatch failure must surface as a
        # structured 500 with the connection intact — exactly like a
        # real handler bug.  Keyed on an arrival counter, so a
        # sequential chaos client sees the same requests fail every run.
        faults.maybe_raise(
            "server.io", f"{request.method} {request.path}#{next(self._io_seq)}"
        )

    def _error_response(
        self, exc: Exception, request_id: str
    ) -> Tuple[int, object, Dict[str, str]]:
        if isinstance(exc, QueueFullError):
            return 503, error_payload(503, str(exc), request_id), {
                "Retry-After": f"{exc.retry_after:g}"
            }
        if isinstance(exc, asyncio.TimeoutError):
            message = f"request exceeded the {self.config.timeout:g}s budget"
            return 504, error_payload(504, message, request_id), {}
        return super()._error_response(exc, request_id)

    def _match_route(self, path: str):
        match = _TENANT_REPORT_RE.match(path)
        if match is None:
            return None
        return {"GET": functools.partial(self._handle_tenant_report, tenant_id=match.group(1))}

    # ------------------------------------------------------------------
    # Tenancy (auth middleware, quotas, reporting)
    # ------------------------------------------------------------------
    def _resolve_tenant(self, request: HttpRequest) -> "Optional[TenantRecord]":
        """Auth middleware: the request's tenant, or None for public.

        Credentials ride ``Authorization: Bearer <key>`` (preferred) or
        ``X-Api-Key``.  A request without credentials is *public* — the
        shared namespace, never rejected.  A request **with** a key that
        resolves to no tenant is a 401: a caller who presented identity
        must not silently fall back to the shared pool.  Without a store
        there are no tenants, so keys are ignored entirely.
        """
        auth = request.headers.get("authorization", "")
        api_key = auth[7:].strip() if auth.lower().startswith("bearer ") else ""
        if not api_key:
            api_key = request.headers.get("x-api-key", "").strip()
        if not api_key or self.tenants is None:
            return None
        record = self.tenants.resolve(api_key)
        if record is None:
            self.telemetry.incr("auth_rejections")
            raise HttpError(401, "unknown API key", {"WWW-Authenticate": "Bearer"})
        return record

    def _check_quota(self, tenant: "Optional[TenantRecord]") -> None:
        """Enforce the tenant's request quota (429 + Retry-After on breach).

        ``Retry-After`` is float seconds until the next token accrues at
        the bucket's refill rate — the honest wait, not a fixed-window
        "try again next epoch" round-up.
        """
        if tenant is None or self.quotas is None:
            return
        decision = self.quotas.check(tenant)
        if not decision:
            self.telemetry.incr("quota_rejections")
            raise HttpError(
                429,
                f"tenant {tenant.tenant_id!r} exceeded "
                f"{tenant.quota_limit} requests per {tenant.quota_interval:g}s",
                {"Retry-After": f"{max(decision.retry_after, 0.001):.3f}"},
            )

    async def _handle_tenant_report(
        self, request: HttpRequest, request_id: str, tenant_id: str
    ) -> Tuple[int, object, Dict[str, str]]:
        """Fleet-health report over the tenant's persisted history.

        Tenants read their *own* report: the request must authenticate
        as ``tenant_id`` (401 without credentials, 403 as someone else).
        """
        if self.store is None:
            raise HttpError(404, "no persistence store armed (serve with --store)")
        tenant = self._resolve_tenant(request)
        if tenant is None:
            raise HttpError(401, "API key required", {"WWW-Authenticate": "Bearer"})
        if tenant.tenant_id != tenant_id:
            raise HttpError(403, f"key does not belong to tenant {tenant_id!r}")
        try:
            limit = int(request.query.get("limit", "0") or 0)
        except ValueError:
            raise HttpError(400, "limit must be an integer") from None
        from repro.store import build_report

        report = build_report(self.store, tenant_id, limit=max(0, limit))
        if report is None:  # pragma: no cover - key just resolved to it
            raise HttpError(404, f"no tenant {tenant_id!r}")
        report["request_id"] = request_id
        return 200, report, {}

    async def _experience_get(
        self, request: HttpRequest, request_id: str
    ) -> Tuple[int, object, Dict[str, str]]:
        return 200, self._experience_export(), {}

    def _experience_export(self) -> Dict:
        """The gossip export, annotated with store-restored baselines.

        Each rule restored from the store at boot carries its
        ``seed_occurrences`` so a gossip peer can tell persisted history
        from fresh evidence after this replica restarts (the ledger uses
        it as the expectation baseline instead of zero).  Without a
        store the payload is exactly the plain snapshot.
        """
        snapshot = self.engine.experience_snapshot()
        seed = self.engine.experience_seed
        if seed:
            from repro.core.learning import rule_identity

            for entry in snapshot["rules"]:
                occurrences = seed.get(
                    rule_identity(entry["signature"], entry["component"], entry["mode"])
                )
                if occurrences:
                    entry["seed_occurrences"] = occurrences
        seed_episodes = getattr(self.engine, "experience_seed_episodes", 0)
        if seed_episodes:
            snapshot["seed_episode_count"] = seed_episodes
        return snapshot

    def _metrics(self, samples: bool = False) -> Dict:
        return {
            "server": {
                "uptime_seconds": self._uptime(),
                "draining": self._draining,
                "inflight": self._inflight,
                "mean_job_seconds": round(self._mean_job_seconds, 6),
            },
            "queue": self.admission.depth(),
            "cache": self.engine.cache.snapshot(),
            "supervisor": (
                self.engine.supervisor.snapshot()
                if self.engine.supervisor is not None
                else None
            ),
            "experience_rules": len(self.engine.experience),
            "store": self.store.snapshot() if self.store is not None else None,
            "quota": self.quotas.snapshot() if self.quotas is not None else None,
            "lifecycle": (
                self.maintenance.snapshot() if self.maintenance is not None else None
            ),
            "telemetry": self.telemetry.snapshot(samples=samples),
        }

    async def _handle_diagnose(
        self, request: HttpRequest, request_id: str
    ) -> Tuple[int, object, Dict[str, str]]:
        self._reject_if_draining()
        tenant = self._resolve_tenant(request)
        self._check_quota(tenant)
        spec = request.json()
        try:
            job = job_from_spec(spec, index=0)
        except ManifestError as exc:
            raise HttpError(400, str(exc)) from None
        tracing = request.query.get("trace", "") in ("1", "true", "yes")
        ctx = RunContext.with_timeout(
            self.config.timeout, trace_id=request_id, tracing=tracing
        )
        run = (
            functools.partial(self.engine.run_job, tenant=tenant.tenant_id)
            if tenant is not None
            else self.engine.run_job
        )
        result = await self._admitted(run, job, ctx=ctx)
        payload = result.to_dict()
        payload["request_id"] = request_id
        if result.status == "interrupted":
            # The budget expired in-band: the engine wound down and this
            # is the partial (uncached) result — a 504 with substance.
            return 504, payload, {}
        return 200, payload, {}

    async def _handle_experience_merge(
        self, request: HttpRequest, request_id: str
    ) -> Tuple[int, object, Dict[str, str]]:
        """Gossip sink: merge a peer's experience delta into the engine.

        Accepts an :meth:`~repro.core.learning.ExperienceBase.to_dict`
        payload (the cluster gateway posts per-round deltas) and merges
        it with the existing noisy-or semantics.  Runs inline — the
        merge is a small in-memory fold, not diagnosis work — so gossip
        never competes with requests for admission slots.
        """
        self._reject_if_draining()
        data = request.json()
        if not isinstance(data, dict) or not isinstance(data.get("rules"), list):
            raise HttpError(400, "experience payload needs a 'rules' list")
        try:
            merged = self.engine.absorb_experience(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise HttpError(400, f"bad experience payload: {exc}") from None
        self.telemetry.incr("gossip_merges")
        return 200, {
            "request_id": request_id,
            "merged_rules": merged,
            "rules": len(self.engine.experience),
        }, {}

    async def _handle_batch(
        self, request: HttpRequest, request_id: str
    ) -> Tuple[int, object, Dict[str, str]]:
        self._reject_if_draining()
        tenant = self._resolve_tenant(request)
        self._check_quota(tenant)
        body = request.json()
        specs = body.get("jobs") if isinstance(body, dict) else body
        if not isinstance(specs, list) or not specs:
            raise HttpError(400, "batch body needs a non-empty 'jobs' list")
        try:
            jobs: List[DiagnosisJob] = [
                job_from_spec(spec, index) for index, spec in enumerate(specs)
            ]
        except ManifestError as exc:
            raise HttpError(400, str(exc)) from None
        run = (
            functools.partial(self.engine.run_batch, tenant=tenant.tenant_id)
            if tenant is not None
            else self.engine.run_batch
        )
        report = await self._admitted(run, jobs)
        payload = {
            "request_id": request_id,
            "results": [r.to_dict() for r in report.results],
            "cache": report.cache,
            "wall_clock": report.wall_clock,
            "rules_learned": report.rules_learned,
        }
        return 200, payload, {}

    # ------------------------------------------------------------------
    # Streaming (SSE)
    # ------------------------------------------------------------------
    async def _handle_stream(self, request: HttpRequest, writer) -> bool:
        """Serve one ``GET /v1/stream`` connection end to end.

        Events carry a per-connection monotonic, gapless ``id:`` (the
        smoke test asserts this), an ``update`` per re-diagnosis, a
        ``heartbeat`` after each quiet ``config.heartbeat`` stretch, and
        exactly one terminal ``end`` whose ``reason`` says why the
        stream finished — ``complete`` (source exhausted) or ``drain``
        (server shutting down; the session still gets its final drain
        tick, so every reading ingested is reflected in the last
        ranking before the goodbye).
        """
        request_id = self._request_id(request)
        started = time.perf_counter()
        try:
            if request.method != "GET":
                raise HttpError(405, "use GET", {"Allow": "GET"})
            self._reject_if_draining()
            self._check_quota(self._resolve_tenant(request))
            if self._streams_active >= self.config.max_streams:
                raise HttpError(
                    503,
                    f"at stream capacity ({self.config.max_streams})",
                    {"Retry-After": "1"},
                )
            spec = StreamSpec.from_query(request.query)
        except HttpError as exc:
            self._log_stream(request_id, exc.status, 0, started)
            try:
                await write_response(
                    writer,
                    exc.status,
                    error_payload(exc.status, exc.message, request_id),
                    keep_alive=False,
                    extra_headers={"X-Request-Id": request_id, **exc.headers},
                )
            except (ConnectionResetError, BrokenPipeError):
                pass
            return False

        self._enter()
        self._streams_active += 1
        self.telemetry.gauge("streams_active", float(self._streams_active))
        self.telemetry.incr("streams_opened")
        events_sent = 0
        try:
            events_sent = await self._pump_stream(spec, writer, request_id)
            self.telemetry.incr("streams_completed")
        except (ConnectionResetError, BrokenPipeError):
            self.telemetry.incr("streams_disconnected")
        finally:
            self._streams_active -= 1
            self.telemetry.gauge("streams_active", float(self._streams_active))
            self._leave()
            self._log_stream(request_id, 200, events_sent, started)
        return False  # Connection: close — SSE streams never keep-alive

    async def _pump_stream(self, spec: StreamSpec, writer, request_id: str) -> int:
        """Write head + events until the session ends; returns event count."""
        session = spec.build_session(self.telemetry)
        assert session is not None
        runner = StreamRunner(session)
        writer.write(render_stream_head({"X-Request-Id": request_id}))
        await writer.drain()

        loop = asyncio.get_running_loop()
        producer = loop.run_in_executor(self._stream_executor, runner.produce)
        seq = 0
        last_sent = time.monotonic()
        reason = "complete"

        async def emit(event: str, data: Dict) -> None:
            nonlocal seq, last_sent
            writer.write(format_event(seq, event, data))
            await writer.drain()
            seq += 1
            last_sent = time.monotonic()

        # Wake the moment a drain is requested, not at the next poll: a
        # stream that finishes inside the poll window would otherwise end
        # ``complete`` although the drain began first.
        shutdown = asyncio.ensure_future(self._shutdown.wait())
        try:
            while True:
                # Short poll so a drain without a shutdown request, and the
                # heartbeat, are still seen while the producer is deep in a
                # propagation fixpoint.
                get = asyncio.ensure_future(
                    runner.next_update(timeout=min(0.25, self.config.heartbeat))
                )
                await asyncio.wait({get, shutdown}, return_when=asyncio.FIRST_COMPLETED)
                if self._draining and not runner.stopped:
                    runner.stop()
                    reason = "drain"
                item = await get  # never cancelled, so no update is lost
                if item is None:
                    if time.monotonic() - last_sent >= self.config.heartbeat:
                        await emit("heartbeat", {"request_id": request_id})
                    continue
                if StreamRunner.is_done(item):
                    break
                await emit("update", item.to_dict())
        finally:
            shutdown.cancel()
            runner.stop()
        # Wait for the producer thread to wind down before the goodbye so
        # `end` is truly the last event and telemetry is fully flushed.
        await producer
        if runner.error is not None:
            log.error("stream %s failed: %s", request_id, runner.error)
            await emit(
                "end",
                {"reason": "error", "error": str(runner.error), "events": seq},
            )
            return seq
        # Flush updates that raced the sentinel (none expected, but the
        # zero-dropped-events guarantee should not hinge on scheduling).
        for item in runner.pending():
            await emit("update", item.to_dict())
        await emit("end", {"reason": reason, "events": seq})
        return seq

    def _log_stream(
        self, request_id: str, status: int, events: int, started: float
    ) -> None:
        log.info(
            json.dumps(
                {
                    "request_id": request_id,
                    "method": "GET",
                    "path": "/v1/stream",
                    "status": status,
                    "events": events,
                    "elapsed_ms": round((time.perf_counter() - started) * 1000, 3),
                    "streams_active": self._streams_active,
                }
            )
        )

    async def _admitted(self, fn, arg, ctx: Optional[RunContext] = None):
        """Run blocking engine work under admission control + timeout.

        ``ctx`` is the request's :class:`RunContext`; the normal expiry
        path is *in-band* (the engine observes its own deadline and
        returns an interrupted result before the event-loop timer
        fires).  When the timer does fire first — the job is stuck
        outside the cooperative loop — the context is cancelled so the
        worker thread winds down instead of burning CPU on an answer
        nobody is waiting for.
        """
        async with self.admission.slot(self._mean_job_seconds):
            loop = asyncio.get_running_loop()
            started = time.perf_counter()
            if ctx is not None:
                future = loop.run_in_executor(
                    self._executor, functools.partial(fn, arg, ctx)
                )
                # Give the in-band deadline a grace period to win: the
                # engine observes its own expiry at ``timeout`` and winds
                # down with a partial result; the event-loop timer is the
                # hard backstop for work stuck outside the cooperative
                # loop.
                budget = self.config.timeout + max(0.25, 0.25 * self.config.timeout)
            else:
                future = loop.run_in_executor(self._executor, fn, arg)
                budget = self.config.timeout
            try:
                result = await asyncio.wait_for(asyncio.shield(future), timeout=budget)
            except asyncio.TimeoutError:
                if ctx is not None:
                    ctx.cancel()
                self.telemetry.incr("http_timeouts")
                raise
            elapsed = time.perf_counter() - started
            self._mean_job_seconds = 0.8 * self._mean_job_seconds + 0.2 * elapsed
            return result


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run(config: ServerConfig) -> int:
    """Blocking entry point: serve until SIGTERM/SIGINT, drain, return 0."""
    server = DiagnosisServer(config)
    asyncio.run(server.serve())
    return 0
