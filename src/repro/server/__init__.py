"""Diagnosis server: the fleet engine behind a network API.

The fleet subsystem (:mod:`repro.service`) batches; this package makes
the batch engine *resident*.  One long-lived process keeps the warm
result cache and the learned experience base and serves diagnosis over
HTTP/JSON — stdlib asyncio only, no framework:

* :mod:`repro.server.http`     — minimal HTTP/1.1 framing over asyncio
  streams (:func:`read_request`, :func:`render_response`) and the
  :class:`~repro.server.http.HttpService` shell (connection loop,
  request ids, route table, access log, graceful drain) that this
  server and the cluster gateway share;
* :mod:`repro.server.queueing` — admission control and backpressure
  (:class:`AdmissionQueue`: bounded wait queue + concurrency slots,
  503 + ``Retry-After`` load shedding);
* :mod:`repro.server.app`      — the :class:`DiagnosisServer` itself:
  routes, admission, per-request timeouts, tenancy and SSE streams
  (:class:`ServerConfig`, :func:`run`);
* :mod:`repro.server.client`   — :class:`DiagnosisClient`, a blocking
  connection-reusing client with exponential-backoff retries on 503
  and transport errors.

``python -m repro serve`` is the CLI front end; see README
"Server mode" for the endpoint reference.
"""

from repro.server.app import DiagnosisServer, ServerConfig, run
from repro.server.client import (
    AuthError,
    ClientError,
    DiagnosisClient,
    ServerUnavailable,
)
from repro.server.http import HttpError, HttpRequest
from repro.server.queueing import AdmissionQueue, QueueFullError

__all__ = [
    "DiagnosisServer",
    "ServerConfig",
    "run",
    "DiagnosisClient",
    "AuthError",
    "ClientError",
    "ServerUnavailable",
    "HttpError",
    "HttpRequest",
    "AdmissionQueue",
    "QueueFullError",
]
