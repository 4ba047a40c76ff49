"""Tests for the minimal HTTP framing layer."""

import asyncio
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import http
from repro.server.http import (
    HttpError,
    HttpRequest,
    error_payload,
    read_request,
    render_response,
)
from tests.server.wire import parse_response_bytes


def parse(raw: bytes, max_header=http.MAX_HEADER_BYTES, max_body=http.MAX_BODY_BYTES):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    with mock.patch.object(http, "MAX_HEADER_BYTES", max_header), mock.patch.object(
        http, "MAX_BODY_BYTES", max_body
    ):
        return asyncio.run(go())


class TestReadRequest:
    def test_get_with_query(self):
        req = parse(b"GET /metrics?verbose=1&verbose=2 HTTP/1.1\r\nHost: x\r\n\r\n")
        assert req.method == "GET"
        assert req.path == "/metrics"
        assert req.query == {"verbose": "2"}
        assert req.headers["host"] == "x"
        assert req.body == b""

    def test_post_with_body(self):
        body = b'{"unit": "u1"}'
        raw = (
            b"POST /v1/diagnose HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        req = parse(raw)
        assert req.method == "POST"
        assert req.json() == {"unit": "u1"}

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_truncated_head_rejected(self):
        with pytest.raises(HttpError) as err:
            parse(b"GET / HTTP/1.1\r\nHos")
        assert err.value.status == 400

    def test_malformed_request_line(self):
        with pytest.raises(HttpError) as err:
            parse(b"NONSENSE\r\n\r\n")
        assert err.value.status == 400

    def test_malformed_header_line(self):
        with pytest.raises(HttpError) as err:
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")
        assert err.value.status == 400

    def test_chunked_refused(self):
        raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        with pytest.raises(HttpError) as err:
            parse(raw)
        assert err.value.status == 501

    def test_bad_content_length(self):
        with pytest.raises(HttpError) as err:
            parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        assert err.value.status == 400

    def test_body_shorter_than_content_length(self):
        with pytest.raises(HttpError) as err:
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
        assert err.value.status == 400

    def test_oversized_body_rejected(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 100
        with pytest.raises(HttpError) as err:
            parse(raw, max_body=10)
        assert err.value.status == 413

    def test_oversized_head_rejected(self):
        raw = b"GET / HTTP/1.1\r\n" + b"X-Pad: " + b"y" * 200 + b"\r\n\r\n"
        with pytest.raises(HttpError) as err:
            parse(raw, max_header=64)
        assert err.value.status == 413

    def test_malformed_target_is_400(self):
        with pytest.raises(HttpError) as err:
            parse(b"GET http://[::1/x HTTP/1.1\r\n\r\n")
        assert err.value.status == 400

    @pytest.mark.parametrize("declared", ["+3", "1_0", "-1", "3.0", "\u0663"])
    def test_content_length_must_be_ascii_digits(self, declared):
        raw = f"POST / HTTP/1.1\r\nContent-Length: {declared}\r\n\r\nabc"
        with pytest.raises(HttpError) as err:
            parse(raw.encode("utf-8"))
        assert err.value.status == 400

    def test_keep_alive_default_and_close(self):
        req = parse(b"GET / HTTP/1.1\r\n\r\n")
        assert req.keep_alive
        req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not req.keep_alive


class TestJsonBody:
    def test_empty_body_rejected(self):
        req = parse(b"POST / HTTP/1.1\r\n\r\n")
        with pytest.raises(HttpError) as err:
            req.json()
        assert err.value.status == 400

    def test_invalid_json_rejected(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\n{oop"
        with pytest.raises(HttpError) as err:
            parse(raw).json()
        assert err.value.status == 400


class TestRenderResponse:
    def test_round_trip(self):
        raw = render_response(200, {"status": "ok"})
        status, headers, body = parse_response_bytes(raw)
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert int(headers["content-length"]) == len(body)
        assert json.loads(body) == {"status": "ok"}

    def test_connection_semantics(self):
        _, headers, _ = parse_response_bytes(render_response(200, {}, keep_alive=True))
        assert headers["connection"] == "keep-alive"
        _, headers, _ = parse_response_bytes(render_response(200, {}, keep_alive=False))
        assert headers["connection"] == "close"

    def test_extra_headers(self):
        raw = render_response(503, {}, extra_headers={"Retry-After": "3"})
        status, headers, _ = parse_response_bytes(raw)
        assert status == 503
        assert headers["retry-after"] == "3"

    def test_error_payload_shape(self):
        payload = error_payload(400, "bad spec", "req-1")
        assert payload["error"]["status"] == 400
        assert payload["error"]["message"] == "bad spec"
        assert payload["error"]["request_id"] == "req-1"


#: Request pieces that steer random bytes towards the parser's edge cases.
_TARGETS = st.sampled_from(
    [b"/v1/diagnose", b"http://[::1", b"http://x:99999/", b"?a=1&a=2", b"%zz", b"\xff"]
)
_HEADERS = st.sampled_from([
    b"Host: x", b"Connection: close", b"Transfer-Encoding: chunked", b"no-colon",
    b"Content-Length: 5", b"Content-Length: +3", b"Content-Length: 1_0",
    b"Content-Length: -1", b"Content-Length: 99999999999999999999",
])


@st.composite
def _requests(draw):
    method = draw(st.sampled_from([b"GET", b"POST", b""]) | st.binary(max_size=4))
    target = b"".join(draw(st.lists(_TARGETS | st.binary(max_size=4), max_size=4)))
    version = draw(st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2", b""]))
    headers = draw(st.lists(_HEADERS | st.binary(max_size=12), max_size=4))
    head = b"\r\n".join([method + b" " + target + b" " + version, *headers])
    return head + b"\r\n\r\n" + draw(st.binary(max_size=80))


REQUEST_BYTES = st.binary(max_size=300) | _requests()


@settings(max_examples=400, deadline=None)
@given(raw=REQUEST_BYTES)
def test_any_bytes_yield_a_request_none_or_a_client_error(raw):
    """No byte string escapes ``read_request`` as anything but these."""
    try:
        request = parse(raw, max_header=256, max_body=64)
    except HttpError as exc:
        assert exc.status in (400, 413, 501), exc.status
    else:
        assert request is None or isinstance(request, HttpRequest)
