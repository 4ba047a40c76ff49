"""Behaviour the diagnosis server and the cluster gateway share.

Both front ends run on the same HTTP service shell, so every test here
runs once against a :class:`DiagnosisServer` and once against a
:class:`ClusterGateway` over one in-process replica: routing errors,
request ids, status counters and the JSON access log must agree.
"""

import http.client
import json
import logging
import socket
from dataclasses import dataclass

import pytest

from tests.cluster.test_gateway import RunningCluster
from tests.server.test_server import RunningServer
from tests.server.wire import parse_response_bytes


@dataclass
class Service:
    """One running front end plus what differs between the two."""

    service: object  # DiagnosisServer or ClusterGateway
    logger: str
    experience_allow: str
    minted_prefix: str
    access_fields: tuple

    @property
    def port(self):
        return self.service.port

    def counters(self):
        return self.service.telemetry.snapshot()["counters"]


_ACCESS = ("request_id", "method", "path", "status", "elapsed_ms", "inflight")


@pytest.fixture(params=["server", "gateway"])
def service(request):
    if request.param == "server":
        with RunningServer() as rs:
            yield Service(rs.server, "repro.server", "GET, POST", "", _ACCESS + ("queued",))
    else:
        with RunningServer() as backend, RunningCluster([backend]) as rc:
            yield Service(rc.gateway, "repro.cluster", "GET", "gw-", _ACCESS)


def call(port, method, path, headers=None, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        payload = json.loads(response.read())
        return response.status, dict(response.getheaders()), payload
    finally:
        conn.close()


def test_malformed_target_is_a_structured_400(service):
    with socket.create_connection(("127.0.0.1", service.port), timeout=10) as sock:
        sock.sendall(b"GET http://[::1/x HTTP/1.1\r\nHost: x\r\n\r\n")
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    status, headers, body = parse_response_bytes(reply)
    assert status == 400
    assert headers["connection"] == "close"
    assert json.loads(body)["error"]["status"] == 400
    assert "malformed request target" in json.loads(body)["error"]["message"]


def test_unknown_route_is_a_structured_404(service):
    status, headers, payload = call(service.port, "GET", "/nope")
    assert status == 404
    assert payload == {
        "error": {
            "status": 404,
            "message": "no route '/nope'",
            "request_id": headers["X-Request-Id"],
        }
    }


def test_wrong_method_is_a_405_with_allow(service):
    status, headers, payload = call(service.port, "PUT", "/v1/experience")
    assert status == 405
    assert headers["Allow"] == service.experience_allow
    assert payload["error"]["message"] == "use " + " or ".join(
        service.experience_allow.split(", ")
    )
    status, headers, _ = call(service.port, "POST", "/healthz")
    assert status == 405
    assert headers["Allow"] == "GET"


def test_wellformed_request_id_is_honoured(service):
    status, headers, _ = call(
        service.port, "GET", "/healthz", {"X-Request-Id": "join-me.42"}
    )
    assert status == 200
    assert headers["X-Request-Id"] == "join-me.42"


def test_malformed_request_id_is_replaced_by_a_minted_one(service):
    status, headers, _ = call(
        service.port, "GET", "/healthz", {"X-Request-Id": "bad id!"}
    )
    assert status == 200
    minted = headers["X-Request-Id"]
    assert minted.startswith(service.minted_prefix)
    prefix, _, counter = minted[len(service.minted_prefix):].partition("-")
    assert len(prefix) == 8 and len(counter) == 6 and counter.isdigit()


def test_status_counters(service):
    before = service.counters()
    call(service.port, "GET", "/nope")
    call(service.port, "POST", "/healthz")
    call(service.port, "GET", "/healthz")
    after = service.counters()
    for name in ("http_status_404", "http_status_405", "http_status_200"):
        assert after.get(name, 0) == before.get(name, 0) + 1, name
    assert after["http_requests"] == before.get("http_requests", 0) + 3


def test_access_log_line(service, caplog):
    caplog.set_level(logging.INFO, logger=service.logger)
    call(service.port, "GET", "/nope", {"X-Request-Id": "access-log-7"})
    lines = [
        json.loads(record.getMessage())
        for record in caplog.records
        if record.name == service.logger and "access-log-7" in record.getMessage()
    ]
    assert len(lines) == 1
    line = lines[0]
    assert tuple(line) == service.access_fields
    assert line["request_id"] == "access-log-7"
    assert (line["method"], line["path"], line["status"]) == ("GET", "/nope", 404)
