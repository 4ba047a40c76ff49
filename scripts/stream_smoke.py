"""End-to-end smoke test for ``GET /v1/stream`` — the streaming CI gate.

Launches the real CLI as a subprocess on an ephemeral port, opens an
SSE stream over a live-simulated ladder that shorts ``Rp3`` mid-stream,
and asserts the full streaming contract:

* gapless, strictly monotonic ``id:`` sequence numbers (zero dropped
  events — the ``end`` event's count must equal what we parsed);
* the baseline update is consistent, the post-fault update is not, and
  the injected fault is the rank-1 minimal candidate;
* a second, long-running stream survives SIGTERM: the server drains it
  with an ``end`` event whose reason is ``drain`` and exits 0.

Exits non-zero on any failure, so CI can run it as a bare step:

    PYTHONPATH=src python scripts/stream_smoke.py
"""

import http.client
import signal
import sys
import threading
import time

from _harness import reap, spawn
from repro.stream.sse import parse_events


#: Socket timeout (seconds) while reading one SSE stream.
STREAM_TIMEOUT = 120.0


def read_stream(port, query):
    """One full SSE stream: (status, headers, parsed events)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=STREAM_TIMEOUT)
    try:
        conn.request("GET", f"/v1/stream?{query}")
        resp = conn.getresponse()
        body = resp.read()  # Connection: close — EOF ends the stream
    finally:
        conn.close()
    return resp, parse_events(body)


def assert_gapless(events):
    ids = [seq for seq, _, _ in events]
    assert ids == list(range(len(ids))), f"sequence has gaps: {ids}"
    kinds = [kind for _, kind, _ in events]
    assert kinds[-1] == "end", f"stream did not terminate with end: {kinds}"
    assert "end" not in kinds[:-1], "end must be the final event"
    end = events[-1][2]
    assert end["events"] == len(events) - 1, (
        f"server framed {end['events']} events, we parsed {len(events) - 1} "
        "— something was dropped"
    )


def check_fault_stream(port):
    resp, events = read_stream(
        port, "size=6&duration=0.006&dt=0.001&fault=short:Rp3&fault_at=0.003"
    )
    assert resp.status == 200, resp.status
    assert resp.getheader("Content-Type").startswith("text/event-stream")
    assert_gapless(events)
    assert events[-1][2]["reason"] == "complete", events[-1]

    updates = [data for _, kind, data in events if kind == "update"]
    assert len(updates) >= 2, f"want baseline + post-fault updates, got {updates}"
    assert updates[0]["consistent"] is True, "baseline must look healthy"
    session_seqs = [u["seq"] for u in updates]
    assert session_seqs == list(range(len(updates))), session_seqs

    final = updates[-1]
    assert final["consistent"] is False, "the fault must be detected"
    assert final["candidates"][0] == ["Rp3"], (
        f"injected short on Rp3 must be the rank-1 candidate, "
        f"got {final['candidates'][:3]}"
    )
    print(
        f"fault stream ok: {len(events)} gapless events, "
        f"rank-1 candidate {final['candidates'][0]} "
        f"(tick {final['tick_ms']:.0f}ms, "
        f"{'incremental' if final['incremental'] else 'cold'})"
    )


def check_sigterm_drain(port, process):
    """SIGTERM mid-stream: the open stream ends with reason=drain."""
    results = {}

    def consume():
        try:
            # ~4000 simulation steps keep this stream busy for seconds.
            results["resp"], results["events"] = read_stream(
                port, "size=6&duration=0.4&dt=0.0001"
            )
        except Exception as exc:  # surfaced below, not lost in the thread
            results["error"] = exc

    reader = threading.Thread(target=consume)
    reader.start()
    time.sleep(0.5)  # let the stream open and start simulating
    process.send_signal(signal.SIGTERM)
    reader.join(timeout=90)
    assert not reader.is_alive(), "stream never ended after SIGTERM"
    if "error" in results:
        raise AssertionError(f"stream reader failed: {results['error']}")

    events = results["events"]
    assert events, "drained stream must still deliver its end event"
    assert_gapless(events)
    assert events[-1][2]["reason"] == "drain", events[-1]
    returncode = process.wait(timeout=60)
    assert returncode == 0, f"drain exited {returncode}"
    print(
        f"drain ok: SIGTERM mid-stream ended with reason=drain "
        f"({len(events)} events), server exited 0"
    )


def main():
    process, port = spawn(
        ["serve", "--port", "0", "--workers", "2", "--heartbeat", "1.0"]
    )
    try:
        print(f"server up on port {port}")
        check_fault_stream(port)
        check_sigterm_drain(port, process)
        print("stream smoke test passed")
        return 0
    finally:
        reap(process)


if __name__ == "__main__":
    sys.exit(main())
