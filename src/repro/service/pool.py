"""The fleet engine: fan diagnosis jobs out over a worker pool.

``FleetEngine.run_batch`` is the throughput pipeline the single
:class:`~repro.core.session.TroubleshootingSession` never had:

1. **hash** — every job gets its deterministic content hash;
2. **cache** — previously diagnosed content replays instantly; within
   the batch, duplicated content is deduplicated so one *leader* job
   computes and its *followers* replay the stored result;
3. **execute** — leaders run through a ``concurrent.futures`` pool
   (process by default — diagnosis is pure CPU — or thread/serial),
   with a per-job timeout and a bounded retry on failure.  A crashing
   job yields a structured ``error`` result; it never kills the batch;
4. **merge** — expert-confirmed repairs are folded into the engine's
   shared :class:`~repro.core.learning.ExperienceBase` via
   :meth:`~repro.core.learning.ExperienceBase.merge`, so the whole
   fleet learns from every shop.

Jobs are plain data (see :mod:`repro.service.jobs`), so nothing but
picklable payloads ever crosses a process boundary.

**Resilience plane** (see :mod:`repro.resilience` and README
"Resilience"): an optional :class:`FleetSupervisor` quarantines
poison jobs after repeated failures (a quarantined job returns a
structured ``quarantined`` result and never re-enters the retry loop),
scores worker health and proactively evicts/restarts a sick pool; and a
seeded :class:`~repro.resilience.faults.FaultPlan` injects worker crashes,
hangs, slow responses and malformed measurements at named points so
chaos tests exercise every one of those paths deterministically.
"""

from __future__ import annotations

import logging
import threading
import time
import traceback
from contextlib import nullcontext
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.db import DiagnosisStore
    from repro.store.lifecycle import StoreMaintenance

from repro.core.diagnosis import Flames
from repro.core.knowledge import KnowledgeBase
from repro.core.learning import Episode, ExperienceBase, SymptomSignature
from repro.core.model import shared_model
from repro.circuit.measurements import Measurement
from repro.resilience import faults
from repro.resilience.sanitize import SanitizeReport, sanitize_tuples
from repro.resilience.supervisor import FleetSupervisor
from repro.runtime.context import RunContext
from repro.service.cache import ResultCache
from repro.service.jobs import DiagnosisJob, JobResult, diagnosis_to_dict
from repro.service.telemetry import Telemetry

__all__ = ["FleetEngine", "BatchReport", "execute_job"]

log = logging.getLogger("repro.service")

EXECUTORS = ("process", "thread", "serial")


def execute_job(
    job: DiagnosisJob,
    deadline_seconds: Optional[float] = None,
    tracing: bool = False,
    ctx: Optional[RunContext] = None,
    fault_plan: Optional[faults.FaultPlan] = None,
) -> Dict:
    """Run one job to a plain-dict outcome (the worker entry point).

    Module-level and dealing only in plain data so it pickles into
    worker processes; the deadline crosses the boundary *in-band* as
    ``deadline_seconds`` (a :class:`RunContext` is built worker-side),
    so a budgeted job winds down cooperatively inside the pool instead
    of burning CPU after its future is abandoned.  An in-process caller
    (the server's executor thread) may pass a live ``ctx`` instead —
    sharing its cancel token — which takes precedence.  Exceptions are
    converted into an ``error`` payload — a crashing job must produce a
    result, not a dead pool.

    ``fault_plan`` (plain data, so it crosses the pickle boundary) arms
    the worker's deterministic injection points; only an armed plan
    needs the job's content hash as its injection key.

    Design modes, nominal predictions and fault simulations come from
    this process's :func:`~repro.core.model.shared_model` for the job's
    netlist text, so jobs on one design build them once.
    """
    start = time.perf_counter()
    if fault_plan is not None and faults.active_plan() != fault_plan:
        faults.install_plan(fault_plan)
    if ctx is None and (deadline_seconds is not None or tracing):
        ctx = RunContext.with_timeout(deadline_seconds, tracing=tracing)
    try:
        armed = faults.active_plan() is not None
        with faults.key_scope(job.content_hash) if armed else nullcontext():
            # --- chaos: the worker-level injection points -------------
            faults.maybe_exit("pool.worker_exit")
            faults.maybe_raise("pool.worker_crash")
            faults.maybe_sleep("pool.worker_hang")
            faults.maybe_sleep("pool.slow_response")

            raw = list(job.measurements)
            if raw and faults.maybe_fire("measurement.malformed") is not None:
                # A glitched bench: the first reading turns non-finite.
                point = raw[0][0]
                raw[0] = (point, float("nan"), float("nan"), 0.0, 0.0)

            report = SanitizeReport()
            if job.sanitize == "repair":
                raw, report = sanitize_tuples(raw)
                if not raw:
                    return {
                        "status": "error",
                        "error": "sanitizer dropped every measurement: "
                        + "; ".join(a.reason for a in report.actions),
                        "degraded": report.to_dict(),
                        "elapsed": time.perf_counter() - start,
                    }
            circuit = job.circuit()
            model = shared_model(job.netlist_text)
            measurements = [Measurement.from_tuple(m) for m in raw]
            engine = Flames(circuit, job.flames_config(), model=model)
            result = engine.diagnose(measurements, ctx=ctx)
            refinements = None
            if not result.is_consistent and not result.interrupted:
                refinements = KnowledgeBase(circuit, model=model).refine(
                    result.suspicions, measurements, top_k=5
                )
            if result.interrupted:
                status = "interrupted"
            elif report.degraded:
                status = "degraded"
            else:
                status = "ok"
            payload: Dict = {
                "status": status,
                "diagnosis": diagnosis_to_dict(result, refinements),
                "elapsed": time.perf_counter() - start,
            }
            if report.degraded:
                payload["diagnosis"]["degraded"] = report.to_dict()
            if result.interrupted and ctx is not None:
                payload["error"] = f"run interrupted: {ctx.stop_reason or 'stopped'}"
            if result.trace:
                payload["trace"] = result.trace
            return payload
    except Exception as exc:
        tail = traceback.format_exc(limit=3)
        return {
            "status": "error",
            "error": f"{type(exc).__name__}: {exc}\n{tail}",
            "elapsed": time.perf_counter() - start,
        }


@dataclass
class BatchReport:
    """Everything one ``run_batch`` produced, in job order."""

    results: List[JobResult]
    telemetry: Dict = field(default_factory=dict)
    cache: Dict = field(default_factory=dict)
    wall_clock: float = 0.0
    rules_learned: int = 0

    @property
    def ok(self) -> List[JobResult]:
        return [r for r in self.results if r.status == "ok"]

    @property
    def completed(self) -> List[JobResult]:
        """Results whose diagnosis ran to quiescence (``ok`` + ``degraded``)."""
        return [r for r in self.results if r.completed]

    @property
    def failed(self) -> List[JobResult]:
        return [r for r in self.results if not r.completed]

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cache_hit)

    def to_dict(self) -> Dict:
        return {
            "results": [r.to_dict() for r in self.results],
            "telemetry": self.telemetry,
            "cache": self.cache,
            "wall_clock": self.wall_clock,
            "rules_learned": self.rules_learned,
        }


class FleetEngine:
    """Batched parallel diagnosis with caching, retries and telemetry.

    Args:
        workers: pool width (>= 1).
        executor: ``"process"`` (default — diagnosis is CPU-bound),
            ``"thread"`` (cheap startup; useful for tests and small
            batches) or ``"serial"`` (inline, no pool at all).
        timeout: per-job seconds.  The budget travels *in-band*: each
            worker builds a :class:`RunContext` deadline and winds down
            cooperatively, yielding a partial ``interrupted`` result.
            The pool keeps a hard backstop (``timeout`` plus a grace
            period) for jobs stuck outside the cooperative loop — those
            still yield a ``timeout`` result and may linger until the
            batch ends.  ``None`` = unbounded.
        retries: extra attempts granted to a job whose worker crashed
            or whose pool broke (timeouts and interruptions are not
            retried).
        tracing: collect engine span trees on every job; traces ride on
            the results and fold into the telemetry phase table.
        cache_size: capacity of the engine's in-memory result cache,
            which persists across batches for warm-pass speedups.
        supervisor: the resilience plane's :class:`FleetSupervisor`
            (quarantine + worker health).  ``None``
            (the default) preserves the pre-resilience retry semantics
            exactly; pass ``FleetSupervisor()`` — or use
            ``supervise=True`` on the CLI — to engage it.
        fault_plan: a deterministic :class:`~repro.resilience.faults.
            FaultPlan` armed in every worker (chaos testing only).
        store: an optional :class:`~repro.store.db.DiagnosisStore` — the
            persistence plane.  When armed the result cache becomes the
            two-tier :class:`~repro.store.cache.PersistentResultCache`, the
            shared experience base is restored from the store at boot
            (its restored occurrence counts are kept in
            ``experience_seed`` so gossip can tell restored from fresh),
            every merge writes through per tenant, and each result
            appends a diagnosis-history row.  ``None`` (the default)
            keeps everything in-memory and byte-identical to before.
        maintenance: an optional
            :class:`~repro.store.lifecycle.StoreMaintenance` driven
            *opportunistically*: after each batch the engine calls
            ``maybe_tick()``, which checkpoints/retains only once the
            configured interval has elapsed — batch mode gets store
            upkeep amortised into the workload, with no extra thread.
    """

    def __init__(
        self,
        workers: int = 4,
        executor: str = "process",
        timeout: Optional[float] = None,
        retries: int = 1,
        cache_size: int = 256,
        tracing: bool = False,
        supervisor: Optional[FleetSupervisor] = None,
        fault_plan: Optional[faults.FaultPlan] = None,
        store: "Optional[DiagnosisStore]" = None,
        maintenance: "Optional[StoreMaintenance]" = None,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.workers = workers
        self.executor_kind = executor
        self.timeout = timeout
        self.retries = retries
        self.store = store
        self.maintenance = maintenance
        self.cache: ResultCache
        if store is not None:
            from repro.store.cache import PersistentResultCache

            self.cache = PersistentResultCache(store, capacity=cache_size)
        else:
            self.cache = ResultCache(cache_size)
        self.telemetry = Telemetry()
        #: rule identity -> occurrences restored from the store at boot.
        #: Gossip peers subtract this baseline so a restarted replica
        #: never re-reports persisted occurrences as fresh evidence.
        self.experience_seed: Dict[str, int] = {}
        self.experience_seed_episodes = 0
        self.experience = ExperienceBase()
        if store is not None:
            from repro.core.learning import rule_identity
            from repro.store.db import PUBLIC_TENANT

            data, _version = store.load_experience(PUBLIC_TENANT)
            self.experience = ExperienceBase.from_dict(data)
            self.experience_seed = {
                rule_identity(r.signature, r.component, r.mode): r.occurrences
                for r in self.experience.rules
            }
            self.experience_seed_episodes = int(data.get("episode_count", 0))
        #: tenant id -> that tenant's isolated base, lazily restored.
        self._tenant_experience: Dict[str, ExperienceBase] = {}
        self._experience_lock = threading.Lock()
        self.tracing = bool(tracing)
        self.supervisor = supervisor
        if supervisor is not None:
            supervisor.telemetry = self.telemetry
        self.fault_plan = fault_plan
        if fault_plan is not None:
            # Arm the engine's own process too (serial/thread executors,
            # the cache's corruption point); workers re-arm from the
            # pickled plan in execute_job.
            faults.install_plan(fault_plan)

    # ------------------------------------------------------------------
    # The pipeline
    # ------------------------------------------------------------------
    def run_batch(
        self, jobs: Sequence[DiagnosisJob], tenant: Optional[str] = None
    ) -> BatchReport:
        """Diagnose a fleet; returns one result per job, in job order.

        ``tenant`` namespaces the cache lookups and the experience merge
        (``None`` = the shared public pool, the pre-tenant behavior).
        Results always carry the *raw* content hash — tenancy changes
        where state lands, never what a diagnosis says.
        """
        started = time.perf_counter()
        tel = self.telemetry
        tel.incr("batches")
        tel.incr("jobs_submitted", len(jobs))

        with tel.phase("fleet.hash"):
            hashes = [job.content_hash for job in jobs]

        results: Dict[int, JobResult] = {}
        leaders: Dict[str, int] = {}
        followers: Dict[str, List[int]] = {}
        with tel.phase("fleet.cache"):
            for index, (job, key) in enumerate(zip(jobs, hashes)):
                if self.supervisor is not None and self.supervisor.is_quarantined(key):
                    results[index] = self._quarantined_result(job, key)
                    continue
                cached = self.cache.get(self._cache_key(key, tenant))
                if cached is not None:
                    results[index] = cached.relabel(job.unit)
                elif key in leaders:
                    followers.setdefault(key, []).append(index)
                else:
                    leaders[key] = index

        with tel.phase("fleet.execute"):
            executed = self._execute({key: jobs[i] for key, i in leaders.items()})

        for key, index in leaders.items():
            outcome = executed[key]
            results[index] = outcome
            if outcome.completed:
                self.cache.put(self._cache_key(key, tenant), outcome)
            for follower in followers.get(key, []):
                if outcome.completed:
                    # Replay through the cache so in-batch duplicates are
                    # counted exactly like warm-pass hits.
                    stored = self.cache.get(self._cache_key(key, tenant))
                    if stored is not None:
                        results[follower] = stored.relabel(jobs[follower].unit)
                        continue
                results[follower] = outcome.relabel(jobs[follower].unit, cache_hit=False)

        ordered = [results[i] for i in range(len(jobs))]

        with tel.phase("fleet.merge"):
            learned = self._merge_experience(jobs, ordered, tenant=tenant)

        for res in ordered:
            self._record_result(res, tenant=tenant)
        cache_snap = self.cache.snapshot()
        tel.incr("cache_hits", cache_snap["hits"] - tel.counter("cache_hits"))
        tel.incr("cache_hits_mem", cache_snap["hits_mem"] - tel.counter("cache_hits_mem"))
        tel.incr(
            "cache_hits_disk", cache_snap["hits_disk"] - tel.counter("cache_hits_disk")
        )
        tel.incr("cache_misses", cache_snap["misses"] - tel.counter("cache_misses"))

        wall = time.perf_counter() - started
        tel.observe("batch_seconds", wall)
        if self.maintenance is not None:
            # Opportunistic store upkeep between batches (interval-gated
            # inside maybe_tick; a no-op until it's due).
            self.maintenance.maybe_tick()
        return BatchReport(
            results=ordered,
            telemetry=tel.snapshot(),
            cache=cache_snap,
            wall_clock=wall,
            rules_learned=learned,
        )

    def run_job(
        self,
        job: DiagnosisJob,
        ctx: Optional[RunContext] = None,
        tenant: Optional[str] = None,
    ) -> JobResult:
        """Diagnose one unit synchronously through the shared state.

        The long-lived-owner entry point the diagnosis server calls from
        its executor threads: cache lookup, inline execution with the
        engine's retry budget, cache fill, experience merge and
        telemetry — the ``run_batch`` pipeline for a fleet of one,
        without spinning up a pool.  Thread-safe: cache, telemetry and
        experience each guard themselves.  A caller-supplied ``ctx``
        carries the request's deadline, cancel token and trace id into
        the engine (the server's per-request budget); otherwise the
        engine's own ``timeout``/``tracing`` settings apply.  ``tenant``
        namespaces cache and experience exactly as in ``run_batch``;
        quarantine stays keyed on the raw content hash (a poison job is
        poison for everyone).
        """
        key = job.content_hash
        if self.supervisor is not None and self.supervisor.is_quarantined(key):
            result = self._quarantined_result(job, key)
            self._record_result(result, tenant=tenant)
            return result
        cached = self.cache.get(self._cache_key(key, tenant))
        if cached is not None:
            result = cached.relabel(job.unit)
        else:
            result = self._attempt(job, key, ctx)
            if result.completed:
                # Interrupted results are partial: never cached.
                self.cache.put(self._cache_key(key, tenant), result)
        self._merge_experience([job], [result], tenant=tenant)
        self._record_result(result, tenant=tenant)
        return result

    def _cache_key(self, content_hash: str, tenant: Optional[str]) -> str:
        """The cache key ``tenant`` sees for this content (raw when public)."""
        if tenant is None:
            return content_hash
        from repro.store.cache import namespaced_key

        return namespaced_key(content_hash, tenant)

    def _quarantined_result(
        self, job: DiagnosisJob, key: str, attempts: int = 0
    ) -> JobResult:
        assert self.supervisor is not None
        return JobResult(
            unit=job.unit,
            content_hash=key,
            status="quarantined",
            error=self.supervisor.quarantine_reason(key),
            attempts=attempts,
            cache_hit=False,
        )

    def _note_attempt(self, key: str, payload: Dict) -> bool:
        """Score one attempt with the supervisor; True once quarantined."""
        if self.supervisor is None:
            return False
        status = payload.get("status")
        functioned = status in ("ok", "degraded", "interrupted")
        self.supervisor.record_worker_outcome(functioned)
        if functioned:
            self.supervisor.record_job_success(key)
            return False
        return self.supervisor.record_failure(key, str(payload.get("error", "")))

    def _settle(
        self, job: DiagnosisJob, key: str, payload: Dict, attempts: int
    ) -> Optional[JobResult]:
        """Score one attempt: the job's final result, or None to retry it."""
        if self._note_attempt(key, payload):
            return self._quarantined_result(job, key, attempts=attempts)
        if payload["status"] == "error" and attempts <= self.retries:
            self.telemetry.incr("retries")
            return None
        return self._to_result(job, key, payload, attempts)

    def _record_result(self, res: JobResult, tenant: Optional[str] = None) -> None:
        """Per-result counters shared by ``run_batch`` and ``run_job``."""
        tel = self.telemetry
        tel.incr(f"jobs_{res.status}")
        self._record_history(res, tenant)
        if res.cache_hit:
            return
        if res.elapsed:
            tel.observe("job_seconds", res.elapsed)
        stats = res.diagnosis.get("stats", {})
        if stats:
            tel.incr("propagation_passes")
            tel.incr("propagation_steps", stats.get("propagation_steps", 0))
            tel.incr("nogoods_found", stats.get("nogoods", 0))
        if res.trace:
            tel.record_trace(res.trace)

    def _record_history(self, res: JobResult, tenant: Optional[str]) -> None:
        """Append one diagnosis-history row when the store is armed.

        History is reporting, not diagnosis: a failed write degrades the
        fleet-health report (and counts ``history_write_errors``), it
        never fails the job.
        """
        if self.store is None:
            return
        from repro.store.db import PUBLIC_TENANT

        candidates = res.candidates()
        try:
            self.store.record_history(
                tenant or PUBLIC_TENANT,
                res.unit,
                res.content_hash,
                res.status,
                res.is_consistent,
                candidates[0][0] if candidates else "",
                res.elapsed,
                res.cache_hit,
            )
        except Exception as exc:
            self.telemetry.incr("history_write_errors")
            log.warning("history write failed: %s: %s", type(exc).__name__, exc)

    # ------------------------------------------------------------------
    # Execution with retry / timeout / graceful degradation
    # ------------------------------------------------------------------
    def _execute(self, pending: Dict[str, DiagnosisJob]) -> Dict[str, JobResult]:
        if not pending:
            return {}
        if self.executor_kind == "serial":
            return self._execute_serial(pending)
        return self._execute_pooled(pending)

    def _execute_serial(self, pending: Dict[str, DiagnosisJob]) -> Dict[str, JobResult]:
        return {key: self._attempt(job, key) for key, job in pending.items()}

    def _attempt(
        self, job: DiagnosisJob, key: str, ctx: Optional[RunContext] = None
    ) -> JobResult:
        """Run one job inline, retrying errors until done or quarantined."""
        attempts = 0
        while True:
            attempts += 1
            payload = execute_job(
                job,
                deadline_seconds=self.timeout,
                tracing=self.tracing,
                ctx=ctx,
                fault_plan=self.fault_plan,
            )
            result = self._settle(job, key, payload, attempts)
            if result is not None:
                return result

    def _execute_pooled(self, pending: Dict[str, DiagnosisJob]) -> Dict[str, JobResult]:
        results: Dict[str, JobResult] = {}
        attempts = {key: 0 for key in pending}
        executor = self._make_executor()
        # The deadline travels in-band (the worker winds down on its own);
        # the pool-side wait adds a grace period and acts as a hard-kill
        # backstop for jobs hung outside the cooperative loop.
        backstop = (
            self.timeout + max(1.0, 0.25 * self.timeout)
            if self.timeout is not None
            else None
        )
        try:
            while pending:
                futures: Dict[str, Future] = {}
                for key, job in pending.items():
                    attempts[key] += 1
                    try:
                        futures[key] = executor.submit(
                            execute_job, job, self.timeout, self.tracing,
                            None, self.fault_plan,
                        )
                    except (BrokenExecutor, RuntimeError):
                        executor = self._revive(executor)
                        futures[key] = executor.submit(
                            execute_job, job, self.timeout, self.tracing,
                            None, self.fault_plan,
                        )
                retry: Dict[str, DiagnosisJob] = {}
                for key, future in futures.items():
                    job = pending[key]
                    try:
                        payload = future.result(timeout=backstop)
                    except FuturesTimeoutError:
                        future.cancel()
                        payload = {
                            "status": "timeout",
                            "error": f"job exceeded the {self.timeout:g}s budget",
                            "elapsed": float(self.timeout or 0.0),
                        }
                        self.telemetry.event("timeout", unit=job.unit, hash=key[:12])
                    except BrokenExecutor as exc:
                        executor = self._revive(executor)
                        payload = {
                            "status": "error",
                            "error": f"worker pool broke: {exc!r}",
                            "elapsed": 0.0,
                        }
                    except Exception as exc:  # unpicklable result, cancellation, ...
                        self.telemetry.incr("jobs_internal_error")
                        log.warning(
                            "job %s raised outside the worker body: %s: %s",
                            job.unit, type(exc).__name__, exc,
                        )
                        payload = {
                            "status": "error",
                            "error": f"{type(exc).__name__}: {exc}",
                            "elapsed": 0.0,
                        }
                    result = self._settle(job, key, payload, attempts[key])
                    if result is None:
                        retry[key] = job
                    else:
                        results[key] = result
                if self.supervisor is not None and self.supervisor.should_evict():
                    # Sustained crashes/hangs: evict the sick pool and
                    # restart fresh before the next round.
                    executor = self._revive(executor)
                    self.supervisor.record_eviction()
                pending = retry
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        return results

    def _make_executor(self):
        if self.executor_kind == "thread":
            return ThreadPoolExecutor(max_workers=self.workers)
        return ProcessPoolExecutor(max_workers=self.workers)

    def _revive(self, executor):
        """Replace a broken pool (graceful degradation, not batch death)."""
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception as exc:
            # Even a failed shutdown must not kill the batch, but it is
            # an internal fault worth surfacing, not swallowing.
            self.telemetry.incr("jobs_internal_error")
            self.telemetry.event(
                "internal_error", where="pool_shutdown", error=f"{type(exc).__name__}: {exc}"
            )
            log.warning("broken pool shutdown failed: %s: %s", type(exc).__name__, exc)
        self.telemetry.incr("pool_restarts")
        return self._make_executor()

    def _to_result(
        self, job: DiagnosisJob, key: str, payload: Dict, attempts: int
    ) -> JobResult:
        result = JobResult(
            unit=job.unit,
            content_hash=key,
            status=str(payload["status"]),
            diagnosis=dict(payload.get("diagnosis") or {}),
            error=str(payload.get("error", "")),
            elapsed=float(payload.get("elapsed", 0.0)),
            attempts=attempts,
            cache_hit=False,
            trace=dict(payload.get("trace") or {}),
        )
        if result.status == "degraded":
            self.telemetry.event(
                "job_degraded",
                unit=job.unit,
                dropped=len(result.diagnosis.get("degraded", {}).get("dropped", [])),
                widened=len(result.diagnosis.get("degraded", {}).get("widened", [])),
            )
        if not result.completed:
            self.telemetry.event(
                "job_failed",
                unit=job.unit,
                status=result.status,
                attempts=attempts,
                error=result.error.splitlines()[0] if result.error else "",
            )
        return result

    # ------------------------------------------------------------------
    # Experience merge
    # ------------------------------------------------------------------
    def _experience_for(self, tenant: Optional[str]) -> ExperienceBase:
        """The base ``tenant`` learns into (lazily restored from the store).

        Call with the experience lock held.
        """
        if tenant is None:
            return self.experience
        base = self._tenant_experience.get(tenant)
        if base is None:
            if self.store is not None:
                data, _version = self.store.load_experience(tenant)
                base = ExperienceBase.from_dict(data)
            else:
                base = ExperienceBase(base_certainty=self.experience.base_certainty)
            self._tenant_experience[tenant] = base
        return base

    def _persist_experience(self, tenant: Optional[str], delta: Dict) -> None:
        """Write one merge delta through to the store (when armed)."""
        if self.store is None:
            return
        from repro.store.db import PUBLIC_TENANT

        try:
            self.store.merge_experience(tenant or PUBLIC_TENANT, delta)
        except Exception as exc:
            self.telemetry.incr("experience_write_errors")
            log.warning("experience write failed: %s: %s", type(exc).__name__, exc)

    def _merge_experience(
        self,
        jobs: Sequence[DiagnosisJob],
        results: Sequence[JobResult],
        tenant: Optional[str] = None,
    ) -> int:
        """Fold the batch's confirmed repairs into the tenant's base."""
        batch = ExperienceBase(base_certainty=self.experience.base_certainty)
        for job, result in zip(jobs, results):
            if not job.confirm or not result.ok:
                continue
            entries = result.signature_entries()
            if entries is None:
                continue
            component, mode = job.confirm
            batch.record(Episode(SymptomSignature.from_list(entries), component, mode))
        if len(batch):
            with self._experience_lock:
                self._experience_for(tenant).merge(batch)
            self.telemetry.incr("episodes_recorded", batch.episode_count)
            self._persist_experience(tenant, batch.to_dict())
        return len(batch)

    def experience_snapshot(self) -> Dict:
        """The shared base as plain data (the server's gossip endpoint)."""
        with self._experience_lock:
            return self.experience.to_dict()

    def absorb_experience(self, data: Dict) -> int:
        """Merge a peer replica's experience delta into the shared base.

        ``data`` is an :meth:`ExperienceBase.to_dict` payload (typically
        a gossip *delta*: only the occurrences a peer learned since the
        last round).  Returns the number of rules in the delta; merge
        semantics are the existing noisy-or :meth:`ExperienceBase.merge`.

        Absorbed deltas are deliberately *not* written through to the
        store: cluster replicas share one store file, so the replica
        that learned the episode already persisted it — re-persisting on
        every gossip delivery would double-count occurrences after a
        restart.
        """
        delta = ExperienceBase.from_dict(data)
        if len(delta):
            with self._experience_lock:
                self.experience.merge(delta)
            self.telemetry.incr("experience_absorbed_rules", len(delta))
        return len(delta)
