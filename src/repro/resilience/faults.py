"""Deterministic fault injection — the resilience plane's chaos source.

A production diagnosis fleet fails in ways the paper never had to model:
workers crash or hang, cache entries rot, a bench feeds the server NaN
volts.  :class:`FaultPlan` lets the
chaos suite (and the smoke scripts) exercise *exactly*
those paths, reproducibly:

* **seeded and deterministic** — whether a fault fires at an injection
  point is a pure function of ``(seed, point, key)`` (a sha256 draw, no
  wall-clock randomness), so the same plan over the same jobs fires the
  same faults regardless of executor kind, worker count or scheduling
  order;
* **named injection points** — the code under test calls
  :func:`maybe_fire` / :func:`maybe_raise` / :func:`maybe_sleep` at the
  points listed in :data:`POINTS`; with no plan installed these are
  near-free no-ops (one module-global check);
* **plain data** — a plan is a frozen dataclass of tuples, so it
  pickles into worker processes and round-trips through JSON (the
  ``REPRO_FAULTS`` environment variable carries it into subprocess
  workers and ``repro serve`` / ``repro batch`` invocations).

The recognised injection points:

========================  ====================================================
``pool.worker_crash``     raise inside the worker's job body (→ structured
                          ``error`` result, exercises retry + quarantine)
``pool.worker_exit``      hard-kill the worker process (``os._exit``; only
                          fires inside a spawned worker process, never the
                          main process — exercises ``BrokenExecutor`` revival)
``pool.worker_hang``      sleep ``seconds`` ignoring the cooperative deadline
                          (exercises the pool's hard-kill backstop → timeout)
``pool.slow_response``    sleep ``seconds`` before answering (latency chaos)
``cache.corrupt``         flip a byte of the stored cache blob before the
                          integrity check (→ counted miss, never a crash)
``measurement.malformed`` replace one measurement with a non-finite reading
                          before parsing (→ sanitizer drop / structured 400)
``server.io``             raise inside the server's dispatch (→ structured
                          500, connection survives)
``cluster.replica_kill``  hard-kill one replica subprocess from the cluster
                          manager's supervision tick (→ ring failover routes
                          around it, the manager restarts it)
``cluster.gossip_drop``   drop one gossip delivery (→ the experience delta is
                          retried on the next round; convergence survives a
                          lossy mesh)
``stream.reading_drop``   drop one telemetry reading before ingest (→ the
                          snapshot keeps the previous value for that net; the
                          stream's final drain tick still converges)
``stream.detector_misfire`` force a spurious drift trigger (→ one wasted but
                          correct re-diagnosis; suppression counters stay
                          consistent)
========================  ====================================================
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "POINTS",
    "InjectedFault",
    "FaultRule",
    "FaultPlan",
    "install_plan",
    "uninstall_plan",
    "active_plan",
    "maybe_fire",
    "maybe_raise",
    "maybe_sleep",
    "maybe_exit",
    "key_scope",
    "current_key",
    "fire_counts",
]

#: Environment variable carrying a JSON plan into worker processes.
ENV_VAR = "REPRO_FAULTS"

#: The recognised injection points (see the module docstring table).
POINTS = (
    "pool.worker_crash",
    "pool.worker_exit",
    "pool.worker_hang",
    "pool.slow_response",
    "cache.corrupt",
    "measurement.malformed",
    "server.io",
    "cluster.replica_kill",
    "cluster.gossip_drop",
    "stream.reading_drop",
    "stream.detector_misfire",
)


class InjectedFault(RuntimeError):
    """An exception raised on purpose by the fault plane."""

    def __init__(self, point: str, key: str):
        super().__init__(f"injected fault at {point} (key={key[:16]})")
        self.point = point
        self.key = key


@dataclass(frozen=True)
class FaultRule:
    """One armed injection point.

    ``rate`` is the per-key firing probability; the draw is the sha256
    of ``(seed, point, key)`` mapped to [0, 1), so it is identical in
    every process that evaluates it.  ``seconds`` parameterises the
    sleep-flavoured points; ``limit`` caps total firings (counted
    per-process — a convenience bound for smoke runs, not part of the
    deterministic contract).
    """

    point: str
    rate: float = 1.0
    seconds: float = 0.0
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.point not in POINTS:
            raise ValueError(
                f"unknown injection point {self.point!r}; choices: {', '.join(POINTS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.seconds < 0:
            raise ValueError("seconds must be non-negative")

    def to_spec(self) -> Dict:
        spec: Dict = {"point": self.point, "rate": self.rate}
        if self.seconds:
            spec["seconds"] = self.seconds
        if self.limit is not None:
            spec["limit"] = self.limit
        return spec


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s — plain, picklable data."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    # ------------------------------------------------------------------
    # Deterministic decisions
    # ------------------------------------------------------------------
    def _draw(self, point: str, key: str) -> float:
        digest = hashlib.sha256(f"{self.seed}|{point}|{key}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def decide(self, point: str, key: str) -> Optional[FaultRule]:
        """The rule that fires at ``point`` for ``key``, if any.

        Pure — no counters, no clocks: calling it twice with the same
        arguments gives the same answer in any process.
        """
        for rule in self.rules:
            if rule.point == point and self._draw(point, key) < rule.rate:
                return rule
        return None

    # ------------------------------------------------------------------
    # Construction / serialisation
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, seed: int = 0, **rates: float) -> "FaultPlan":
        """Shorthand: ``FaultPlan.build(0, pool_worker_crash=0.1, ...)``.

        Keyword names are injection points with ``.`` spelled ``_``
        (``cache_corrupt=0.05``); values are rates.
        """
        rules = []
        for name, rate in rates.items():
            point = name.replace("_", ".", 1) if "." not in name else name
            rules.append(FaultRule(point=point, rate=float(rate)))
        return cls(seed=seed, rules=tuple(rules))

    def to_spec(self) -> Dict:
        return {"seed": self.seed, "rules": [rule.to_spec() for rule in self.rules]}

    @classmethod
    def from_spec(cls, spec: Dict) -> "FaultPlan":
        if not isinstance(spec, dict):
            raise ValueError(f"fault plan spec must be an object, got {type(spec).__name__}")
        rules: List[FaultRule] = []
        for entry in spec.get("rules", ()):
            if not isinstance(entry, dict) or "point" not in entry:
                raise ValueError(f"bad fault rule spec {entry!r}")
            rules.append(
                FaultRule(
                    point=str(entry["point"]),
                    rate=float(entry.get("rate", 1.0)),
                    seconds=float(entry.get("seconds", 0.0)),
                    limit=int(entry["limit"]) if entry.get("limit") is not None else None,
                )
            )
        return cls(seed=int(spec.get("seed", 0)), rules=tuple(rules))

    def to_json(self) -> str:
        return json.dumps(self.to_spec(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            return cls.from_spec(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from None


# ----------------------------------------------------------------------
# The installed plan (module-global, per process)
# ----------------------------------------------------------------------
_lock = threading.Lock()
_active: Optional[FaultPlan] = None
_env_checked = False
_counts: Dict[str, int] = {}
_scope = threading.local()


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Arm ``plan`` process-wide (``None`` disarms).  Resets fire counts."""
    global _active, _env_checked
    with _lock:
        _active = plan
        _env_checked = True  # an explicit install overrides the environment
        _counts.clear()


def uninstall_plan() -> None:
    """Disarm and forget the environment override (test teardown)."""
    global _active, _env_checked
    with _lock:
        _active = None
        _env_checked = False
        _counts.clear()


def active_plan() -> Optional[FaultPlan]:
    """The armed plan; lazily adopted from ``REPRO_FAULTS`` once."""
    global _active, _env_checked
    if _active is None and not _env_checked:
        with _lock:
            if _active is None and not _env_checked:
                _env_checked = True
                raw = os.environ.get(ENV_VAR, "")
                if raw:
                    _active = FaultPlan.from_json(raw)
    return _active


def fire_counts() -> Dict[str, int]:
    """Per-point firing counts in this process (diagnostics/telemetry)."""
    with _lock:
        return dict(_counts)


# ----------------------------------------------------------------------
# Key scoping — stable injection keys across layers
# ----------------------------------------------------------------------
class _KeyScope:
    """Context manager binding the current deterministic injection key."""

    __slots__ = ("_key", "_previous")

    def __init__(self, key: str):
        self._key = key
        self._previous: Optional[str] = None

    def __enter__(self) -> None:
        self._previous = getattr(_scope, "key", None)
        _scope.key = self._key

    def __exit__(self, *exc_info: object) -> bool:
        _scope.key = self._previous
        return False


def key_scope(key: str) -> _KeyScope:
    """Bind ``key`` as the injection key for the enclosed work.

    ``execute_job`` binds the job's content hash around the whole
    diagnosis, so its injection points (``measurement.malformed``
    among them) fire deterministically per *job content* rather than
    per ephemeral trace id.
    """
    return _KeyScope(key)


def current_key(fallback: str = "") -> str:
    key = getattr(_scope, "key", None)
    return key if key is not None else fallback


# ----------------------------------------------------------------------
# Injection-point helpers (near-free when no plan is armed)
# ----------------------------------------------------------------------
def maybe_fire(point: str, key: Optional[str] = None) -> Optional[FaultRule]:
    """The rule firing at ``point`` for ``key`` (None when disarmed/quiet).

    ``key`` defaults to the :func:`key_scope`-bound key.  Honours each
    rule's ``limit`` with a per-process counter.
    """
    plan = active_plan()
    if plan is None:
        return None
    rule = plan.decide(point, key if key is not None else current_key(point))
    if rule is None:
        return None
    with _lock:
        fired = _counts.get(point, 0)
        if rule.limit is not None and fired >= rule.limit:
            return None
        _counts[point] = fired + 1
    return rule


def maybe_raise(point: str, key: Optional[str] = None) -> None:
    """Raise :class:`InjectedFault` when ``point`` fires."""
    rule = maybe_fire(point, key)
    if rule is not None:
        raise InjectedFault(point, key if key is not None else current_key(point))


def maybe_sleep(point: str) -> float:
    """Sleep the firing rule's ``seconds``; returns the time slept."""
    rule = maybe_fire(point)
    if rule is None or rule.seconds <= 0:
        return 0.0
    import time

    time.sleep(rule.seconds)
    return rule.seconds


def maybe_exit(point: str = "pool.worker_exit") -> None:
    """Hard-kill the current *worker* process when ``point`` fires.

    Refuses to fire in the main process — killing the test runner or the
    server is never the chaos we want; only spawned pool workers die.
    """
    rule = maybe_fire(point)
    if rule is None:
        return
    import multiprocessing

    if multiprocessing.current_process().name == "MainProcess":
        return
    os._exit(3)
