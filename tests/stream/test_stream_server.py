"""`GET /v1/stream` against a live server: framing, sequencing, lifecycle."""

import http.client
import json
import threading
import time

from repro.server import ServerConfig
from repro.stream.sse import parse_events

from tests.server.test_server import RunningServer


def stream_config(**overrides):
    kwargs = dict(
        port=0, workers=2, queue_size=8, timeout=30.0,
        max_streams=2, heartbeat=5.0,
    )
    kwargs.update(overrides)
    return ServerConfig(**kwargs)


def open_stream(port, query, timeout=60.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    conn.request("GET", f"/v1/stream?{query}")
    return conn, conn.getresponse()


def read_stream(port, query, timeout=60.0):
    conn, resp = open_stream(port, query, timeout)
    try:
        body = resp.read()  # Connection: close — EOF ends the stream
    finally:
        conn.close()
    return resp, body


class TestStreamEndpoint:
    def test_sse_framing_sequence_and_heartbeat(self):
        with RunningServer(stream_config(heartbeat=0.05)) as rs:
            # Size 12 makes the baseline tick slow enough that several
            # 50ms heartbeat windows elapse.
            resp, body = read_stream(
                rs.server.port, "size=12&duration=0.004&dt=0.001"
            )
            assert resp.status == 200
            assert resp.getheader("Content-Type").startswith("text/event-stream")
            assert resp.getheader("Connection") == "close"
            assert resp.getheader("Content-Length") is None
            assert resp.getheader("X-Request-Id")

            events = parse_events(body)
            assert events, "stream must contain at least the end event"
            # Gapless, strictly monotonic ids from 0.
            assert [seq for seq, _, _ in events] == list(range(len(events)))
            kinds = [kind for _, kind, _ in events]
            assert kinds[-1] == "end"
            assert "end" not in kinds[:-1]
            assert "heartbeat" in kinds
            assert "update" in kinds
            end = events[-1][2]
            assert end["reason"] == "complete"
            assert end["events"] == len(events) - 1

    def test_update_payloads_carry_the_diagnosis(self):
        with RunningServer(stream_config()) as rs:
            _, body = read_stream(
                rs.server.port,
                "size=6&duration=0.006&dt=0.001&fault=short:Rp3&fault_at=0.003",
            )
            updates = [data for _, kind, data in parse_events(body) if kind == "update"]
            assert updates
            assert updates[0]["consistent"] is True
            final = updates[-1]
            assert final["consistent"] is False
            assert final["candidates"][0] == ["Rp3"]
            assert [u["seq"] for u in updates] == list(range(len(updates)))

    def test_bad_spec_is_a_structured_400(self):
        with RunningServer(stream_config()) as rs:
            resp, body = read_stream(rs.server.port, "size=999")
            assert resp.status == 400
            assert json.loads(body)["error"]["status"] == 400
            resp, _ = read_stream(rs.server.port, "fault=bogus")
            assert resp.status == 400
            resp, _ = read_stream(rs.server.port, "nets=zz")
            assert resp.status == 400

    def test_out_of_range_values_are_a_400_before_the_stream_opens(self):
        with RunningServer(stream_config()) as rs:
            for query in ("imprecision=-1", "duration=nan", "alpha=2", "top=-1"):
                resp, body = read_stream(rs.server.port, f"size=2&{query}")
                assert resp.status == 400, query
                assert json.loads(body)["error"]["status"] == 400

    def test_non_get_is_405(self):
        with RunningServer(stream_config()) as rs:
            conn = http.client.HTTPConnection("127.0.0.1", rs.server.port, timeout=30)
            conn.request("POST", "/v1/stream", body=b"{}")
            resp = conn.getresponse()
            assert resp.status == 405
            conn.close()

    def test_capacity_is_a_503_with_retry_after(self):
        with RunningServer(stream_config(max_streams=0)) as rs:
            resp, body = read_stream(rs.server.port, "size=2&duration=0.002")
            assert resp.status == 503
            assert resp.getheader("Retry-After")
            assert "capacity" in json.loads(body)["error"]["message"]

    def test_drain_ends_streams_with_reason_drain(self):
        with RunningServer(stream_config()) as rs:
            # ~4000 simulation steps keep the source busy long enough
            # for the shutdown to land mid-stream.
            results = {}

            def consume():
                results["resp"], results["body"] = read_stream(
                    rs.server.port, "size=6&duration=0.4&dt=0.0001"
                )

            reader = threading.Thread(target=consume)
            reader.start()
            time.sleep(0.5)  # let the stream open and start simulating
            rs.loop.call_soon_threadsafe(rs.server.request_shutdown)
            reader.join(timeout=30)
            assert not reader.is_alive()

            events = parse_events(results["body"])
            assert events
            assert [seq for seq, _, _ in events] == list(range(len(events)))
            kind, data = events[-1][1], events[-1][2]
            assert kind == "end"
            assert data["reason"] == "drain"

    def test_stream_telemetry_counters(self):
        with RunningServer(stream_config()) as rs:
            read_stream(rs.server.port, "size=3&duration=0.003&dt=0.001")
            conn = http.client.HTTPConnection("127.0.0.1", rs.server.port, timeout=30)
            conn.request("GET", "/metrics")
            payload = json.loads(conn.getresponse().read())
            conn.close()
            counters = payload["telemetry"]["counters"]
            assert counters.get("streams_opened") == 1
            assert counters.get("streams_completed") == 1
            assert counters.get("stream_rediagnoses", 0) >= 1
            assert payload["telemetry"]["gauges"].get("streams_active") == 0.0
