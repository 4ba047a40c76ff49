"""Minimal HTTP/1.1 framing and service shell over asyncio — no dependencies.

The diagnosis server and the cluster gateway speak a deliberately small
slice of HTTP: JSON bodies, ``Content-Length`` framing (chunked uploads
are refused with 501), keep-alive connections, and a handful of routes.
This module owns the wire format and the service loop so
:mod:`repro.server.app` and :mod:`repro.cluster.gateway` deal purely in
:class:`HttpRequest` objects and ``(status, payload, headers)`` triples:

* :func:`read_request` — parse one request off a stream reader, with
  hard limits on header and body size (an overload server must not be
  OOM-able by one fat request);
* :func:`render_response` — serialise a JSON response with correct
  framing and connection semantics;
* :class:`HttpError` — raisable anywhere in a handler to short-circuit
  into a structured JSON error response;
* :class:`HttpService` — the shell both front ends share: binding, the
  keep-alive connection loop, request ids, the route table (404/405),
  per-request telemetry and the JSON access log, and the signal-driven
  drain.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import re
import signal
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

__all__ = [
    "HttpError",
    "HttpRequest",
    "HttpService",
    "read_request",
    "render_response",
    "render_stream_head",
    "write_response",
    "error_payload",
    "REASONS",
]

#: Seconds a draining service waits for in-flight work on shutdown.
DRAIN_GRACE = 30.0

#: Reason phrases for the statuses the server actually emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024


class HttpError(Exception):
    """A request-level failure that maps straight to a JSON error response."""

    def __init__(self, status: int, message: str, headers: Optional[Dict[str, str]] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})


@dataclass
class HttpRequest:
    """One parsed request: method, split target, headers, raw body."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)  # keys lower-cased
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> object:
        """Decode the body as JSON (raises :class:`HttpError` 400)."""
        if not self.body:
            raise HttpError(400, "request body must be JSON, got an empty body")
        try:
            return json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") from None


async def read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Parse one request; ``None`` means the peer closed between requests."""
    max_header, max_body = MAX_HEADER_BYTES, MAX_BODY_BYTES
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between keep-alive requests
        raise HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise HttpError(413, f"request head exceeds {max_header} bytes") from None
    if len(head) > max_header:
        raise HttpError(413, f"request head exceeds {max_header} bytes")

    try:
        request_line, *header_lines = head.decode("latin-1").split("\r\n")[:-2]
    except UnicodeDecodeError:
        raise HttpError(400, "undecodable request head") from None
    parts = request_line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {request_line!r}")
    method, target, _version = parts

    headers: Dict[str, str] = {}
    for line in header_lines:
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked request bodies are not supported")

    body = b""
    if "content-length" in headers:
        declared = headers["content-length"]
        if not (declared.isascii() and declared.isdigit()):
            raise HttpError(400, f"bad Content-Length {declared!r}")
        length = int(declared)
        if length > max_body:
            raise HttpError(413, f"request body exceeds {max_body} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "request body shorter than Content-Length") from None

    try:
        split = urlsplit(target)
    except ValueError:
        raise HttpError(400, f"malformed request target {target!r}") from None
    query = {k: v[-1] for k, v in parse_qs(split.query).items()}
    return HttpRequest(
        method=method.upper(), path=split.path, query=query, headers=headers, body=body
    )


def render_response(
    status: int,
    payload: object,
    keep_alive: bool = True,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialise a JSON response (headers + body) ready for one write."""
    body = json.dumps(payload, sort_keys=True).encode() + b"\n"
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def render_stream_head(extra_headers: Optional[Dict[str, str]] = None) -> bytes:
    """The response head for a Server-Sent Events stream.

    No ``Content-Length`` — the body is open-ended, so the connection
    closes when the stream ends (``Connection: close``); events follow
    as ``text/event-stream`` frames written incrementally.
    """
    lines = [
        "HTTP/1.1 200 OK",
        "Content-Type: text/event-stream; charset=utf-8",
        "Cache-Control: no-store",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def error_payload(status: int, message: str, request_id: str = "") -> Dict:
    """The uniform JSON error body: ``{"error": {...}}``."""
    payload = {"error": {"status": status, "message": message}}
    if request_id:
        payload["error"]["request_id"] = request_id
    return payload


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: object,
    keep_alive: bool = True,
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    writer.write(render_response(status, payload, keep_alive, extra_headers))
    await writer.drain()


# ----------------------------------------------------------------------
# The service shell
# ----------------------------------------------------------------------
#: A buffered route handler: ``(request, request_id) -> (status, payload, headers)``.
Handler = Callable[[HttpRequest, str], Awaitable[Tuple[int, Any, Dict[str, str]]]]
#: A raw route owns the writer and returns whether to keep the connection.
RawHandler = Callable[[HttpRequest, asyncio.StreamWriter], Awaitable[bool]]

#: Shape a client-supplied X-Request-Id must match to be honoured.
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class HttpService:
    """Everything an HTTP/JSON front end needs besides its own routes.

    Subclasses register handlers with :meth:`route` (and, for responses
    that own the socket, :meth:`raw_route`), then fill in the hooks
    below.  The shell answers ``/healthz``, ``/readyz`` and ``/metrics``
    itself, mints or honours request ids, counts ``http_requests`` /
    ``http_status_N`` / ``http_seconds_{METHOD} {path}``, logs one JSON
    line per request, and on SIGTERM/SIGINT stops accepting, waits up to
    :data:`DRAIN_GRACE` for in-flight work, then tears down.

    ``config`` needs ``host`` and ``port``.
    """

    #: Names the drain telemetry events, the draining 503 and the summary.
    kind = "server"
    listening_event = "listening"
    drained_event = "drained"
    log = logging.getLogger("repro.server")
    maintenance: Any = None  # a StoreMaintenance the service runs, if any

    def __init__(self, config: Any, telemetry: Any, id_prefix: str = "") -> None:
        self.config = config
        self.telemetry = telemetry
        self.port: Optional[int] = None
        self._routes: Dict[str, Dict[str, Handler]] = {}
        self._raw_routes: Dict[str, RawHandler] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()
        self._loops: List[asyncio.Future] = []
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._shutdown = asyncio.Event()
        self._draining = False
        self._started = time.monotonic()
        self._request_ids = itertools.count(1)
        self._id_prefix = f"{id_prefix}{uuid.uuid4().hex[:8]}"
        self.route("/healthz", GET=self._healthz)
        self.route("/readyz", GET=self._readyz)
        self.route("/metrics", GET=self._metrics_route)

    def route(self, path: str, **methods: Handler) -> None:
        """Serve ``path``; other methods get a 405 naming these."""
        self._routes[path] = methods

    def raw_route(self, path: str, handler: RawHandler) -> None:
        """Hand ``path`` the writer (no buffered response, no access log)."""
        self._raw_routes[path] = handler

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    async def _boot(self) -> None:
        """Work to finish before binding."""

    def _background(self) -> List[Awaitable[None]]:
        """Coroutines to run while serving (cancelled on drain)."""
        return []

    async def _teardown(self, drained: bool) -> None:
        """Release executors, fleets and stores after the drain."""

    # Extra fields for the listening, drained and per-request log lines.
    def _listening_fields(self) -> Dict[str, Any]:
        return {}

    def _drained_fields(self) -> Dict[str, Any]:
        return {}

    def _access_fields(self) -> Dict[str, Any]:
        return {}

    def _before_dispatch(self, request: HttpRequest) -> None:
        """Runs inside the error mapping, before the handler."""

    def _match_route(self, path: str) -> Optional[Dict[str, Handler]]:
        """Routes beyond the fixed table (paths with parameters)."""
        return None

    def _readiness(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {"status": "ready"}

    def _metrics(self, samples: bool = False) -> Dict[str, Any]:
        raise NotImplementedError

    def _error_response(
        self, exc: Exception, request_id: str
    ) -> Tuple[int, Any, Dict[str, str]]:
        """Map a handler exception; anything unknown is a logged 500."""
        self.log.exception("request %s failed", request_id)
        return 500, error_payload(500, f"{type(exc).__name__}: {exc}", request_id), {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting (resolves ``self.port``)."""
        self._started = time.monotonic()
        if self.maintenance is not None:
            self.maintenance.start()
        await self._boot()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.log.info(
            json.dumps(
                {
                    "event": self.listening_event,
                    "host": self.config.host,
                    "port": self.port,
                    **self._listening_fields(),
                }
            )
        )

    def request_shutdown(self) -> None:
        """Begin the drain (signal-handler and test entry point)."""
        if not self._draining:
            self._draining = True
            self.telemetry.event(f"{self.kind}_drain_begin")
            self._shutdown.set()

    async def serve(self) -> None:
        """Run until a shutdown is requested, then drain."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or platform without signal support
        self._loops = [asyncio.ensure_future(job) for job in self._background()]
        try:
            await self._shutdown.wait()
        finally:
            await self._drain()

    async def _drain(self) -> None:
        """Stop accepting, finish in-flight work, tear down, log."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=DRAIN_GRACE)
            drained = True
        except asyncio.TimeoutError:
            drained = False
        tasks = self._loops + [conn for conn in self._connections if not conn.done()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        await self._teardown(drained)
        self.telemetry.event(f"{self.kind}_drain_end", clean=drained)
        self.log.info(
            json.dumps(
                {
                    "event": self.drained_event,
                    "clean": drained,
                    "uptime_seconds": self._uptime(),
                    **self._drained_fields(),
                }
            )
        )
        self.log.info(self.telemetry.summary(title=f"{self.kind} telemetry"))

    # ------------------------------------------------------------------
    # Connections and dispatch
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
        """The request's id: the client's ``X-Request-Id`` when well-formed.

        Honouring the client's id lets one logical request keep a single
        trace across client-side retries and hops; a missing or malformed
        header falls back to a minted ``{prefix}-{n:06d}``.
        """
        supplied = request.headers.get("x-request-id", "")
        if supplied and _REQUEST_ID_RE.match(supplied):
            return supplied
        return f"{self._id_prefix}-{next(self._request_ids):06d}"

    def _enter(self) -> None:
        self._inflight += 1
        self._idle.clear()

    def _leave(self) -> None:
        self._inflight -= 1
        if self._inflight == 0:
            self._idle.set()

    def _handler(self, request: HttpRequest) -> Handler:
        methods = self._routes.get(request.path) or self._match_route(request.path)
        if not methods:
            raise HttpError(404, f"no route {request.path!r}")
        handler = methods.get(request.method)
        if handler is None:
            raise HttpError(
                405, "use " + " or ".join(methods), {"Allow": ", ".join(methods)}
            )
        return handler

    async def _dispatch(self, request: HttpRequest, writer: asyncio.StreamWriter) -> bool:
        """Route one request, write one response; returns keep-alive."""
        raw = self._raw_routes.get(request.path)
        if raw is not None:
            return await raw(request, writer)
        request_id = self._request_id(request)
        started = time.perf_counter()
        self._enter()
        extra = {"X-Request-Id": request_id}
        keep_alive = request.keep_alive and not self._draining
        try:
            self._before_dispatch(request)
            status, payload, headers = await self._handler(request)(request, request_id)
        except HttpError as exc:
            status = exc.status
            payload = error_payload(exc.status, exc.message, request_id)
            headers = exc.headers
        except Exception as exc:  # a handler bug must not kill the connection
            status, payload, headers = self._error_response(exc, request_id)
        finally:
            self._leave()
        extra.update(headers)
        elapsed = time.perf_counter() - started
        self.telemetry.incr("http_requests")
        self.telemetry.incr(f"http_status_{status}")
        self.telemetry.observe(f"http_seconds_{request.method} {request.path}", elapsed)
        self.log.info(
            json.dumps(
                {
                    "request_id": request_id,
                    "method": request.method,
                    "path": request.path,
                    "status": status,
                    "elapsed_ms": round(elapsed * 1000, 3),
                    "inflight": self._inflight,
                    **self._access_fields(),
                }
            )
        )
        try:
            await write_response(writer, status, payload, keep_alive, extra)
        except (ConnectionResetError, BrokenPipeError):
            return False
        return keep_alive

    # ------------------------------------------------------------------
    # Shared routes
    # ------------------------------------------------------------------
    def _uptime(self) -> float:
        return round(time.monotonic() - self._started, 3)

    def _reject_if_draining(self) -> None:
        if self._draining:
            raise HttpError(503, f"{self.kind} is draining", {"Retry-After": "1"})

    async def _healthz(self, request: HttpRequest, request_id: str):
        return 200, {"status": "ok", "uptime_seconds": self._uptime()}, {}

    async def _readyz(self, request: HttpRequest, request_id: str):
        if self._draining:
            return 503, {"status": "draining"}, {}
        status, payload = self._readiness()
        if status == 200 and self.maintenance is not None:
            payload["lifecycle"] = self.maintenance.snapshot()
        return status, payload, {}

    async def _metrics_route(self, request: HttpRequest, request_id: str):
        samples = request.query.get("samples", "") in ("1", "true", "yes")
        return 200, self._metrics(samples=samples), {}
