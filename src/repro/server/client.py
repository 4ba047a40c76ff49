"""A blocking HTTP client for the diagnosis server, with retries.

:class:`DiagnosisClient` is the reference consumer of the server API —
the tests, the smoke script, the throughput benchmark and the cluster
gateway all drive servers through it.  Built on :mod:`http.client`
(stdlib, blocking) so callers need no event loop; one connection per
endpoint is kept open across calls and transparently re-opened after a
drop.

Retry policy: ``503 Service Unavailable`` (load shed) and transport
errors (connection refused/reset, timeouts) are retried with
exponential backoff under **full jitter** — each wait is drawn
uniformly from ``[0, backoff * 2**n]`` so retry storms from many
clients decorrelate instead of hammering the server in lockstep — while
still honouring the server's ``Retry-After`` hint (as a floor) up to
``max_delay``.  The jitter source is an injectable ``random.Random``,
so tests pin a seed and the schedule is deterministic.  Any other
non-2xx answer raises immediately —
:class:`ClientError` carries the status and the server's JSON error
body, so a 400 tells you exactly which field was malformed.

Multi-endpoint mode: constructed with ``base_urls`` (or handed an
explicit ``endpoints`` order per request — the cluster gateway passes
the hash ring's preference list), the client *fails over*: each retry
attempt rotates to the next endpoint instead of re-hitting the one
that just refused, and a failed endpoint's pooled socket is discarded
so a later attempt never reuses a connection to a server that already
dropped it.  The ``Retry-After`` floor only applies when the next
attempt targets the same endpoint that issued the hint — a different
replica is not the one that asked for breathing room.

Every logical request mints one ``X-Request-Id`` and sends it on
*every* retry attempt; the server honours it as the request id and the
engine trace id, so all attempts of one request join into a single
trace in the server's logs and span trees.
"""

from __future__ import annotations

import http.client
import json
import logging
import random
import socket
import time
import uuid
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["DiagnosisClient", "ClientError", "AuthError", "ServerUnavailable"]

log = logging.getLogger("repro.client")

#: An endpoint as the client keys it internally: ``(host, port)``.
Endpoint = Tuple[str, int]

#: Header names whose values are credentials — never logged verbatim.
_SENSITIVE_HEADERS = frozenset({"authorization", "x-api-key"})


def redact_headers(headers: Dict[str, str]) -> Dict[str, str]:
    """A copy of ``headers`` with credential values masked for logging.

    The scheme word of an ``Authorization`` value survives (``Bearer
    ***``) — it is diagnostic; the credential itself never is.  Applied
    on *every* log call, so retry attempts cannot leak the key either.
    """
    safe = {}
    for name, value in headers.items():
        if name.lower() in _SENSITIVE_HEADERS:
            scheme, _, rest = value.partition(" ")
            safe[name] = f"{scheme} ***" if rest else "***"
        else:
            safe[name] = value
    return safe


def _parse_endpoint(spec: object) -> Endpoint:
    """``"host:port"`` / ``"http://host:port"`` / ``(host, port)`` → (host, port)."""
    if isinstance(spec, tuple):
        host, port = spec
        return str(host), int(port)
    text = str(spec)
    if text.startswith("http://"):
        text = text[len("http://"):]
    text = text.rstrip("/")
    host, _, raw_port = text.rpartition(":")
    if not host or not raw_port:
        raise ValueError(f"endpoint must look like 'host:port', got {spec!r}")
    try:
        return host, int(raw_port)
    except ValueError:
        raise ValueError(f"bad endpoint port in {spec!r}") from None


class ClientError(Exception):
    """A non-retryable (or retries-exhausted) HTTP-level failure."""

    def __init__(self, status: int, payload: Dict):
        # ``error`` is a {"message": ...} object on protocol errors but a
        # bare string on interrupted results — accept both shapes.
        message = None
        if isinstance(payload, dict):
            error = payload.get("error")
            if isinstance(error, dict):
                message = error.get("message")
            elif error:
                message = str(error)
        super().__init__(f"HTTP {status}: {message or payload}")
        self.status = status
        self.payload = payload
        #: The server's ``Retry-After`` header, when one accompanied the
        #: error (quota 429s and load-shed 503s send one).  Quota 429s
        #: carry *float seconds* computed from the token bucket's refill
        #: rate — parse with :attr:`retry_after_seconds`.
        self.retry_after: Optional[str] = None

    @property
    def retry_after_seconds(self) -> Optional[float]:
        """``Retry-After`` as float seconds (None when absent/unparsable)."""
        if self.retry_after is None:
            return None
        try:
            return float(self.retry_after)
        except ValueError:
            return None


class AuthError(ClientError):
    """401/403: the API key is missing, unknown, or the wrong tenant's.

    Typed so callers can tell "fix your credentials" from every other
    client failure — an auth problem is never solved by retrying.
    """


class ServerUnavailable(ClientError):
    """503s / transport errors persisted through every retry."""

    def __init__(self, detail: str, payload: Optional[Dict] = None):
        ClientError.__init__(self, 503, payload or {"error": {"message": detail}})


class DiagnosisClient:
    """Connection-reusing JSON client with exponential-backoff retries.

    Args:
        host/port: where the server listens (single-endpoint mode).
        base_urls: multiple server endpoints (``"host:port"`` strings or
            ``(host, port)`` tuples); retry attempts rotate across them.
            Overrides ``host``/``port`` when given.
        timeout: socket timeout per attempt, seconds.
        retries: extra attempts after the first (0 = fail fast).
        backoff: base delay, seconds; attempt *n* waits a uniform draw
            from ``[0, backoff * 2**n]`` (full jitter).
        max_delay: ceiling for any single wait, including ``Retry-After``
            hints (keeps tests and interactive callers snappy).
        rng: jitter source; pass a seeded ``random.Random`` for a
            deterministic retry schedule (tests, replayable chaos runs).
        api_key: tenant credential, sent as ``Authorization: Bearer``
            on every request (and every retry attempt).  The key never
            appears in log output — request logging redacts it.  A
            server answering 401/403 raises the typed
            :class:`AuthError`.
        api_key_header: set to ``"x-api-key"`` to send the credential
            as the ``X-Api-Key`` header instead of ``Authorization``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout: float = 30.0,
        retries: int = 4,
        backoff: float = 0.1,
        max_delay: float = 2.0,
        rng: Optional[random.Random] = None,
        base_urls: Optional[Sequence[object]] = None,
        api_key: str = "",
        api_key_header: str = "authorization",
    ) -> None:
        if base_urls:
            self.endpoints: List[Endpoint] = [_parse_endpoint(u) for u in base_urls]
        else:
            self.endpoints = [(host, int(port))]
        # Single-endpoint attribute compatibility (tests, error text).
        self.host, self.port = self.endpoints[0]
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.max_delay = max_delay
        self.rng = rng if rng is not None else random.Random()
        if api_key_header.lower() not in ("authorization", "x-api-key"):
            raise ValueError("api_key_header must be 'authorization' or 'x-api-key'")
        self.api_key = api_key
        self.api_key_header = api_key_header.lower()
        self._conns: Dict[Endpoint, http.client.HTTPConnection] = {}
        self.attempts_made = 0  # lifetime request attempts (visible to tests)
        self.last_endpoint: Optional[Endpoint] = None  # who answered last

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self, endpoint: Endpoint) -> http.client.HTTPConnection:
        conn = self._conns.get(endpoint)
        if conn is None:
            conn = http.client.HTTPConnection(
                endpoint[0], endpoint[1], timeout=self.timeout
            )
            self._conns[endpoint] = conn
        return conn

    def _drop_connection(self, endpoint: Optional[Endpoint] = None) -> None:
        """Discard pooled socket(s) — all of them, or one failed endpoint's.

        A socket that just raised (or whose server said ``Connection:
        close``) must never be retried: the next attempt to that
        endpoint opens fresh.
        """
        targets = [endpoint] if endpoint is not None else list(self._conns)
        for key in targets:
            conn = self._conns.pop(key, None)
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "DiagnosisClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[object] = None,
        retry_503: bool = True,
        endpoints: Optional[Sequence[object]] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Dict:
        body = None
        # One id per *logical* request, reused verbatim across retry
        # attempts — the server adopts it, so retries share one trace.
        request_id = f"cli-{uuid.uuid4().hex[:16]}"
        headers = {"Accept": "application/json", "X-Request-Id": request_id}
        if extra_headers:
            # Per-request headers (the gateway forwards the caller's
            # credentials through these); still subject to redaction in
            # the attempt log below.
            headers.update(extra_headers)
        if self.api_key:
            if self.api_key_header == "x-api-key":
                headers["X-Api-Key"] = self.api_key
            else:
                headers["Authorization"] = f"Bearer {self.api_key}"
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        targets = (
            [_parse_endpoint(e) for e in endpoints] if endpoints else self.endpoints
        )
        last_error: Optional[Exception] = None
        last_error_endpoint: Optional[Endpoint] = None
        for attempt in range(self.retries + 1):
            # Ring-aware rotation: the first attempt goes to the
            # preferred endpoint; each retry advances to the next.
            target = targets[attempt % len(targets)]
            if attempt:
                time.sleep(
                    self._delay(
                        attempt - 1,
                        last_error,
                        honour_hint=(target == last_error_endpoint),
                    )
                )
            self.attempts_made += 1
            if log.isEnabledFor(logging.DEBUG):
                # Every attempt's headers go through redaction — a retry
                # must be exactly as credential-silent as the first try.
                log.debug(
                    "attempt %d %s %s -> %s:%d headers=%s",
                    attempt + 1, method, path, target[0], target[1],
                    redact_headers(headers),
                )
            try:
                conn = self._connection(target)
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException, socket.timeout) as exc:
                self._drop_connection(target)
                last_error = exc
                last_error_endpoint = target
                continue
            data = self._decode(raw)
            if response.status == 503 and retry_503:
                last_error = ClientError(503, data)
                last_error_endpoint = target
                last_error.retry_after = response.getheader("Retry-After")
                if response.getheader("Connection", "").lower() == "close":
                    self._drop_connection(target)
                continue
            if response.status >= 400:
                self.last_endpoint = target
                if response.status in (401, 403):
                    error: ClientError = AuthError(response.status, data)
                else:
                    error = ClientError(response.status, data)
                error.retry_after = response.getheader("Retry-After")
                raise error
            self.last_endpoint = target
            return data
        if isinstance(last_error, ClientError):
            raise ServerUnavailable(
                f"server still overloaded after {self.retries + 1} attempts",
                last_error.payload,
            )
        where = (
            f"{self.host}:{self.port}"
            if len(targets) == 1
            else "/".join(f"{h}:{p}" for h, p in targets)
        )
        raise ServerUnavailable(
            f"cannot reach {where} after {self.retries + 1} attempts: {last_error}"
        )

    def _delay(
        self,
        completed_attempts: int,
        last_error: Optional[Exception],
        honour_hint: bool = True,
    ) -> float:
        # Full jitter: draw uniformly from [0, backoff * 2**n].  A fleet
        # of clients retrying the same overloaded server spreads out
        # instead of arriving in synchronised waves.
        ceiling = min(self.backoff * (2 ** completed_attempts), self.max_delay)
        delay = self.rng.uniform(0.0, ceiling)
        hint = getattr(last_error, "retry_after", None) if honour_hint else None
        if hint is not None:
            # The server's Retry-After is a floor, not a suggestion —
            # but only for the server that asked; a failover attempt to
            # a *different* replica owes it nothing.
            try:
                delay = max(delay, float(hint))
            except ValueError:
                pass
        return min(delay, self.max_delay)

    @staticmethod
    def _decode(raw: bytes) -> Dict:
        try:
            data = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            data = {"error": {"message": raw.decode("latin-1", "replace")}}
        return data if isinstance(data, dict) else {"value": data}

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def health(self) -> Dict:
        return self._request("GET", "/healthz")

    def ready(self, endpoints: Optional[Sequence[object]] = None) -> Dict:
        """Readiness probe; raises :class:`ClientError` 503 while draining."""
        return self._request("GET", "/readyz", retry_503=False, endpoints=endpoints)

    def metrics(self, samples: bool = False) -> Dict:
        """The telemetry snapshot; ``samples=True`` includes percentile
        reservoirs (what the gateway aggregates across replicas)."""
        path = "/metrics?samples=1" if samples else "/metrics"
        return self._request("GET", path)

    def diagnose(
        self,
        spec: Dict,
        trace: bool = False,
        endpoints: Optional[Sequence[object]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Dict:
        """POST one job spec (the batch-manifest job shape) → JobResult dict.

        ``trace=True`` asks the server for the engine's span tree
        (returned under the result's ``"trace"`` key).  ``endpoints``
        overrides the target order for this request (ring failover);
        ``headers`` adds per-request headers (the gateway forwards the
        caller's credentials this way).
        """
        path = "/v1/diagnose?trace=1" if trace else "/v1/diagnose"
        return self._request("POST", path, spec, endpoints=endpoints, extra_headers=headers)

    def batch(
        self,
        specs: List[Dict],
        endpoints: Optional[Sequence[object]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Dict:
        """POST a list of job specs → results in job order."""
        return self._request(
            "POST",
            "/v1/batch",
            {"jobs": list(specs)},
            endpoints=endpoints,
            extra_headers=headers,
        )

    def experience(self, endpoints: Optional[Sequence[object]] = None) -> Dict:
        """GET the replica's shared :class:`ExperienceBase` as plain data."""
        return self._request("GET", "/v1/experience", endpoints=endpoints)

    def merge_experience(
        self, data: Dict, endpoints: Optional[Sequence[object]] = None
    ) -> Dict:
        """POST an experience delta for the replica to merge (gossip)."""
        return self._request("POST", "/v1/experience", data, endpoints=endpoints)

    def tenant_report(self, tenant_id: str) -> Dict:
        """GET the tenant's fleet-health report (requires this client's
        ``api_key`` to belong to ``tenant_id``; 401/403 →
        :class:`AuthError`)."""
        return self._request("GET", f"/v1/tenants/{tenant_id}/report")
