"""Lifecycle tests for the diagnosis server + retrying client.

The server runs on a background thread with its own event loop (the
same shape as production, minus the process boundary); tests drive it
through :class:`DiagnosisClient` over real sockets on an ephemeral
port.
"""

import http.client
import json
import threading
import time

import asyncio

import pytest

from repro.core.model import shared_model
from repro.server import (
    ClientError,
    DiagnosisClient,
    DiagnosisServer,
    ServerConfig,
    ServerUnavailable,
)
from repro.service import FleetEngine, job_from_spec

NETLIST = (
    ".title divider\n"
    "Vin top 0 12\n"
    "Rtop top mid 10k tol=0.05\n"
    "Rbot mid 0 10k tol=0.05\n"
)

FAULTY_SPEC = {"unit": "u1", "netlist_text": NETLIST, "probes": {"mid": 7.5}}
HEALTHY_SPEC = {"unit": "u2", "netlist_text": NETLIST, "probes": {"mid": 6.0}}


class RunningServer:
    """Run a :class:`DiagnosisServer` on a background thread for one test."""

    def __init__(self, config=None, engine=None):
        self.config = config or ServerConfig(
            port=0, workers=2, queue_size=8, timeout=10.0
        )
        self.server = DiagnosisServer(self.config, engine=engine)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self.server.serve())
        finally:
            self.loop.close()

    def __enter__(self):
        self.thread.start()
        deadline = time.time() + 10
        while self.server.port is None and time.time() < deadline:
            time.sleep(0.01)
        assert self.server.port, "server did not bind in time"
        return self

    def shutdown(self, timeout=15.0):
        if self.thread.is_alive():
            try:
                self.loop.call_soon_threadsafe(self.server.request_shutdown)
            except RuntimeError:
                pass  # loop already closed
        self.thread.join(timeout=timeout)
        assert not self.thread.is_alive(), "server did not drain in time"

    def __exit__(self, *exc_info):
        self.shutdown()

    def client(self, **kwargs):
        kwargs.setdefault("timeout", 10.0)
        kwargs.setdefault("backoff", 0.05)
        kwargs.setdefault("max_delay", 0.2)
        return DiagnosisClient(port=self.server.port, **kwargs)


def gated_engine(workers=1):
    """An engine whose run_job blocks until the test releases it."""
    engine = FleetEngine(workers=workers, executor="thread")
    release = threading.Event()
    real_run_job = engine.run_job

    def slow_run_job(job, ctx=None):
        assert release.wait(timeout=20), "test never released the gate"
        return real_run_job(job, ctx)

    engine.run_job = slow_run_job
    return engine, release


class TestProbesAndMetrics:
    def test_health_ready_metrics(self):
        with RunningServer() as rs:
            with rs.client() as client:
                assert client.health()["status"] == "ok"
                assert client.ready()["status"] == "ready"
                metrics = client.metrics()
                assert metrics["queue"]["workers"] == 2
                assert metrics["cache"]["capacity"] == rs.config.cache_size
                assert "telemetry" in metrics
                json.dumps(metrics)  # JSON-safe end to end

    def test_unknown_route_404_and_wrong_method_405(self):
        with RunningServer() as rs:
            with rs.client(retries=0) as client:
                with pytest.raises(ClientError) as err:
                    client._request("GET", "/nope")
                assert err.value.status == 404
                with pytest.raises(ClientError) as err:
                    client._request("POST", "/healthz", {"x": 1})
                assert err.value.status == 405

    def test_request_id_header_present(self):
        with RunningServer() as rs:
            conn = http.client.HTTPConnection("127.0.0.1", rs.server.port, timeout=10)
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            assert response.getheader("X-Request-Id")
            conn.close()


class TestDiagnoseRoundTrip:
    def test_matches_in_process_result(self):
        from repro.service.jobs import job_from_spec

        in_process = FleetEngine(workers=1, executor="serial").run_job(
            job_from_spec(FAULTY_SPEC)
        )
        with RunningServer() as rs:
            with rs.client() as client:
                served = client.diagnose(FAULTY_SPEC)
        assert served["status"] == "ok"
        assert served["content_hash"] == in_process.content_hash
        assert served["diagnosis"] == in_process.diagnosis

    def test_repeat_is_a_cache_hit(self):
        with RunningServer() as rs:
            with rs.client() as client:
                first = client.diagnose(FAULTY_SPEC)
                second = client.diagnose(FAULTY_SPEC)
        assert not first["cache_hit"]
        assert second["cache_hit"]
        assert second["diagnosis"] == first["diagnosis"]

    def test_batch_round_trip(self):
        with RunningServer() as rs:
            with rs.client() as client:
                report = client.batch([FAULTY_SPEC, HEALTHY_SPEC, FAULTY_SPEC])
        units = [r["unit"] for r in report["results"]]
        assert units == ["u1", "u2", "u1"]
        assert all(r["status"] == "ok" for r in report["results"])
        assert report["cache"]["capacity"] > 0

    def test_malformed_requests_get_400_json_errors(self):
        with RunningServer() as rs:
            with rs.client(retries=0) as client:
                for bad in (
                    {"unit": "u", "probes": {"mid": 1.0}},  # no netlist
                    {"unit": "u", "netlist_text": NETLIST},  # no measurements
                    {"unit": "u", "netlist": "/etc/passwd", "probes": {"mid": 1}},
                    dict(FAULTY_SPEC, config={"kernel": "fast"}),  # one engine
                    ["not", "an", "object"],
                ):
                    with pytest.raises(ClientError) as err:
                        client.diagnose(bad)
                    assert err.value.status == 400
                    assert err.value.payload["error"]["message"]
                with pytest.raises(ClientError) as err:
                    client.batch([])
                assert err.value.status == 400

    def test_out_of_range_config_gets_400(self):
        with RunningServer() as rs:
            with rs.client(retries=0) as client:
                for config in (
                    {"conflict_threshold": 1.5},
                    {"max_candidate_size": 2.7},
                    {"hard_threshold": 1.0},
                ):
                    with pytest.raises(ClientError) as err:
                        client.diagnose(dict(FAULTY_SPEC, config=config))
                    assert err.value.status == 400
                    assert "config" in err.value.payload["error"]["message"]

    def test_non_json_body_gets_400(self):
        with RunningServer() as rs:
            conn = http.client.HTTPConnection("127.0.0.1", rs.server.port, timeout=10)
            conn.request(
                "POST", "/v1/diagnose", body=b"not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert "JSON" in payload["error"]["message"]
            conn.close()


class TestOverload:
    def overload_config(self):
        return ServerConfig(
            port=0, workers=1, queue_size=1, timeout=30.0
        )

    def test_503_with_retry_after_when_queue_full(self):
        engine, release = gated_engine()
        with RunningServer(self.overload_config(), engine=engine) as rs:
            background = []
            try:
                for spec in (FAULTY_SPEC, HEALTHY_SPEC):  # fill slot + queue
                    client = rs.client(retries=0)
                    thread = threading.Thread(target=client.diagnose, args=(spec,))
                    thread.start()
                    background.append(thread)
                deadline = time.time() + 10
                while time.time() < deadline:
                    depth = rs.server.admission.depth()
                    if depth["active"] == 1 and depth["waiting"] == 1:
                        break
                    time.sleep(0.01)
                else:
                    pytest.fail("never saturated the admission queue")
                conn = http.client.HTTPConnection(
                    "127.0.0.1", rs.server.port, timeout=10
                )
                conn.request(
                    "POST", "/v1/diagnose", body=json.dumps(FAULTY_SPEC),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
                assert response.status == 503
                assert float(response.getheader("Retry-After")) >= 1
                assert payload["error"]["status"] == 503
                conn.close()
            finally:
                release.set()
                for thread in background:
                    thread.join(timeout=20)
            assert rs.server.admission.rejected == 1

    def test_client_retries_through_overload(self):
        engine, release = gated_engine()
        config = ServerConfig(
            port=0, workers=1, queue_size=0, timeout=30.0
        )
        with RunningServer(config, engine=engine) as rs:
            blocker_client = rs.client(retries=0)
            blocker = threading.Thread(
                target=blocker_client.diagnose, args=(FAULTY_SPEC,)
            )
            blocker.start()
            deadline = time.time() + 10
            while rs.server.admission.active != 1 and time.time() < deadline:
                time.sleep(0.01)
            assert rs.server.admission.active == 1

            retrier = rs.client(retries=8, backoff=0.05, max_delay=0.1)
            release_timer = threading.Timer(0.3, release.set)
            release_timer.start()
            try:
                result = retrier.diagnose(HEALTHY_SPEC)
            finally:
                release_timer.cancel()
                release.set()
                blocker.join(timeout=20)
            assert result["status"] == "ok"
            assert retrier.attempts_made >= 2  # at least one 503 before success

    def test_retries_exhausted_raise_server_unavailable(self):
        engine, release = gated_engine()
        config = ServerConfig(
            port=0, workers=1, queue_size=0, timeout=30.0
        )
        with RunningServer(config, engine=engine) as rs:
            blocker_client = rs.client(retries=0)
            blocker = threading.Thread(
                target=blocker_client.diagnose, args=(FAULTY_SPEC,)
            )
            blocker.start()
            deadline = time.time() + 10
            while rs.server.admission.active != 1 and time.time() < deadline:
                time.sleep(0.01)
            try:
                with pytest.raises(ServerUnavailable):
                    rs.client(retries=2, backoff=0.01, max_delay=0.02).diagnose(
                        HEALTHY_SPEC
                    )
            finally:
                release.set()
                blocker.join(timeout=20)


class TestTimeouts:
    def test_slow_request_gets_504(self):
        engine = FleetEngine(workers=1, executor="thread")
        real_run_job = engine.run_job

        def slow(job, ctx=None):
            # Stuck *outside* the cooperative loop: never checks ctx.
            time.sleep(0.5)
            return real_run_job(job, ctx)

        engine.run_job = slow
        config = ServerConfig(port=0, workers=1, queue_size=4, timeout=0.1)
        with RunningServer(config, engine=engine) as rs:
            with rs.client(retries=0) as client:
                with pytest.raises(ClientError) as err:
                    client.diagnose(FAULTY_SPEC)
                assert err.value.status == 504


def _ladder_spec(rungs=40, probes=12):
    """A job spec whose diagnosis takes far longer than a tiny timeout."""
    from repro.circuit.faults import Fault, FaultKind, apply_fault
    from repro.circuit.generators import resistor_ladder
    from repro.circuit.simulate import DCSolver
    from repro.circuit.spice import write_netlist

    golden = resistor_ladder(rungs)
    faulty = apply_fault(golden, Fault(FaultKind.OPEN, "Rp3"))
    op = DCSolver(faulty).solve()
    nets = [n for n in sorted(op.voltages) if n != "0"][:probes]
    return {
        "unit": "slow-ladder",
        "netlist_text": write_netlist(golden),
        "probes": {net: op.voltages[net] for net in nets},
    }


class TestDeadlinesAndCancellation:
    def test_504_carries_partial_interrupted_result(self):
        spec = _ladder_spec()
        # The server runs jobs in-process: build the model's design modes
        # and nominal predictions now, so the cold build (not
        # interruptible) cannot outlast the event-loop backstop and the
        # in-band deadline is what stops the run, inside propagate.
        circuit = job_from_spec(spec).circuit()
        model = shared_model(spec["netlist_text"])
        model.design_modes(circuit)
        model.nominal(circuit)
        config = ServerConfig(port=0, workers=1, queue_size=4, timeout=0.05)
        with RunningServer(config) as rs:
            with rs.client(retries=0) as client:
                started = time.perf_counter()
                with pytest.raises(ClientError) as err:
                    client.diagnose(spec)
                elapsed = time.perf_counter() - started
            interrupted_jobs = rs.server.engine.telemetry.counter("jobs_interrupted")
        assert err.value.status == 504
        payload = err.value.payload
        # The in-band deadline won: a partial, well-formed result — not
        # the bare error body the event-loop backstop produces.
        assert payload["status"] == "interrupted"
        assert "interrupted" in payload["error"]
        assert payload["diagnosis"]["stats"]["interrupted"] is True
        assert payload["diagnosis"]["stats"]["quiescent"] is False
        assert payload["request_id"].startswith("cli-")
        assert interrupted_jobs == 1
        # Wound down at the deadline, not after the full diagnosis.
        assert elapsed < 5.0

    def test_504_cancels_in_flight_worker(self):
        engine = FleetEngine(workers=1, executor="thread")
        observed = threading.Event()
        real_run_job = engine.run_job

        def stuck_until_cancelled(job, ctx=None):
            # Ignores the deadline — stuck outside the cooperative loop —
            # so only the event-loop backstop's cancel() releases it.
            assert ctx is not None
            while not ctx.cancelled:
                time.sleep(0.005)
            observed.set()
            return real_run_job(job, ctx)

        engine.run_job = stuck_until_cancelled
        config = ServerConfig(port=0, workers=1, queue_size=4, timeout=0.1)
        with RunningServer(config, engine=engine) as rs:
            with rs.client(retries=0) as client:
                with pytest.raises(ClientError) as err:
                    client.diagnose(FAULTY_SPEC)
            assert err.value.status == 504
            # The worker did not keep burning CPU in the background: the
            # timeout cancelled its context and it wound down.
            assert observed.wait(timeout=5), "worker never observed the cancel"

    def test_trace_query_returns_span_tree_joined_to_request_id(self):
        with RunningServer() as rs:
            with rs.client() as client:
                result = client.diagnose(HEALTHY_SPEC, trace=True)
                plain = client.diagnose(FAULTY_SPEC)
        assert "trace" not in plain
        trace = result["trace"]
        assert trace["trace_id"] == result["request_id"]
        names = [span["name"] for span in trace["spans"]]
        assert "diagnose" in names
        diagnose = trace["spans"][names.index("diagnose")]
        assert any(c["name"] == "propagate" for c in diagnose["children"])


class _FakeResponse:
    def __init__(self, status, payload):
        self.status = status
        self._raw = json.dumps(payload).encode()

    def read(self):
        return self._raw

    def getheader(self, name, default=None):
        return default


class _FakeConn:
    """Scripted http.client stand-in: records headers, replays statuses."""

    def __init__(self, statuses, seen):
        self._statuses = list(statuses)
        self._seen = seen
        self._status = None

    def request(self, method, path, body=None, headers=None):
        self._seen.append(dict(headers or {}))
        self._status = self._statuses.pop(0)

    def getresponse(self):
        if self._status == 200:
            return _FakeResponse(200, {"status": "ok"})
        return _FakeResponse(self._status, {"error": {"message": "overloaded"}})

    def close(self):
        pass


class TestRequestIds:
    def _raw_diagnose(self, rs, headers):
        conn = http.client.HTTPConnection("127.0.0.1", rs.server.port, timeout=10)
        base = {"Content-Type": "application/json"}
        base.update(headers)
        conn.request("POST", "/v1/diagnose", body=json.dumps(HEALTHY_SPEC), headers=base)
        response = conn.getresponse()
        payload = json.loads(response.read())
        header = response.getheader("X-Request-Id")
        conn.close()
        return response.status, payload, header

    def test_server_honours_wellformed_client_request_id(self):
        with RunningServer() as rs:
            status, payload, header = self._raw_diagnose(
                rs, {"X-Request-Id": "trace-join-42"}
            )
        assert status == 200
        assert header == "trace-join-42"
        assert payload["request_id"] == "trace-join-42"

    def test_malformed_request_id_falls_back_to_minted(self):
        with RunningServer() as rs:
            status, payload, header = self._raw_diagnose(
                rs, {"X-Request-Id": "has spaces and\ttabs"}
            )
        assert status == 200
        assert header != "has spaces and\ttabs"
        # Server-minted shape: <8-hex-prefix>-<6-digit-counter>.
        prefix, _, counter = header.partition("-")
        assert len(prefix) == 8 and counter.isdigit()
        assert payload["request_id"] == header

    def test_client_reuses_one_id_across_retry_attempts(self):
        seen = []
        client = DiagnosisClient(port=1, retries=4, backoff=0.001, max_delay=0.002)
        client._conns[("127.0.0.1", 1)] = _FakeConn([503, 503, 200], seen)
        assert client._request("GET", "/x") == {"status": "ok"}
        ids = [h["X-Request-Id"] for h in seen]
        assert len(ids) == 3  # two 503s retried, then success
        assert len(set(ids)) == 1, "retry attempts must share one request id"
        assert ids[0].startswith("cli-")


class TestGracefulDrain:
    def test_inflight_requests_finish_and_server_exits(self):
        engine, release = gated_engine()
        with RunningServer(
            ServerConfig(port=0, workers=1, queue_size=4, timeout=30.0), engine=engine
        ) as rs:
            outcome = {}
            client = rs.client(retries=0)

            def inflight():
                outcome["result"] = client.diagnose(FAULTY_SPEC)

            thread = threading.Thread(target=inflight)
            thread.start()
            deadline = time.time() + 10
            while rs.server.admission.active != 1 and time.time() < deadline:
                time.sleep(0.01)
            assert rs.server.admission.active == 1

            rs.loop.call_soon_threadsafe(rs.server.request_shutdown)
            time.sleep(0.05)  # the drain has begun; work is still gated
            release.set()
            thread.join(timeout=20)
            rs.thread.join(timeout=20)

            assert not rs.thread.is_alive()
            assert outcome["result"]["status"] == "ok"
            # new connections are refused after the drain
            with pytest.raises(ServerUnavailable):
                rs.client(retries=1, backoff=0.01).health()

    def test_readyz_flips_to_503_while_draining(self):
        engine, release = gated_engine()
        with RunningServer(
            ServerConfig(port=0, workers=1, queue_size=4, timeout=30.0), engine=engine
        ) as rs:
            client = rs.client(retries=0)
            worker = threading.Thread(
                target=lambda: client.diagnose(FAULTY_SPEC)
            )
            worker.start()
            deadline = time.time() + 10
            while rs.server.admission.active != 1 and time.time() < deadline:
                time.sleep(0.01)

            probe = rs.client(retries=0)
            assert probe.ready()["status"] == "ready"
            rs.loop.call_soon_threadsafe(rs.server.request_shutdown)
            deadline = time.time() + 10
            status = None
            while time.time() < deadline:
                try:
                    probe.ready()
                except ServerUnavailable:
                    break  # connection already torn down — also a valid drain state
                except ClientError as err:
                    status = err.status
                    break
                time.sleep(0.01)
            assert status in (503, None)
            release.set()
            worker.join(timeout=20)
