"""Server-boundary resilience: structured 400s/500s and jittered retries."""

import asyncio
import http.client
import json
import random
import threading
import time

import pytest

from repro.resilience import FaultPlan
from repro.server import ClientError, DiagnosisClient, DiagnosisServer, ServerConfig

NETLIST = (
    ".title divider\n"
    "Vin top 0 12\n"
    "Rtop top mid 10k tol=0.05\n"
    "Rbot mid 0 10k tol=0.05\n"
)


class RunningServer:
    """Run a :class:`DiagnosisServer` on a background thread for one test."""

    def __init__(self, config=None):
        self.config = config or ServerConfig(
            port=0, workers=2, queue_size=8, timeout=10.0
        )
        self.server = DiagnosisServer(self.config)
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

    def __exit__(self, *exc_info):
        if self.thread.is_alive():
            try:
                self.loop.call_soon_threadsafe(self.server.request_shutdown)
            except RuntimeError:
                pass
        self.thread.join(timeout=15.0)
        assert not self.thread.is_alive(), "server did not drain in time"

    def client(self, **kwargs):
        kwargs.setdefault("timeout", 10.0)
        kwargs.setdefault("backoff", 0.05)
        kwargs.setdefault("max_delay", 0.2)
        return DiagnosisClient(port=self.server.port, **kwargs)


class TestNonFiniteRequests:
    def test_nan_measurement_answers_structured_400(self):
        with RunningServer() as rs:
            with rs.client(retries=0) as client:
                spec = {
                    "unit": "u1",
                    "netlist_text": NETLIST,
                    "measurements": [
                        {"point": "V(mid)", "value": [float("nan"), 6.0, 0.02, 0.02]}
                    ],
                }
                with pytest.raises(ClientError) as err:
                    client.diagnose(spec)
                assert err.value.status == 400
                message = json.dumps(err.value.payload)
                assert "finite" in message or "bad measurement" in message

    def test_infinite_probe_answers_structured_400(self):
        with RunningServer() as rs:
            with rs.client(retries=0) as client:
                spec = {
                    "unit": "u1",
                    "netlist_text": NETLIST,
                    "probes": {"mid": float("inf")},
                }
                with pytest.raises(ClientError) as err:
                    client.diagnose(spec)
                assert err.value.status == 400

    def test_repair_policy_accepts_and_degrades_instead(self):
        with RunningServer() as rs:
            with rs.client(retries=0) as client:
                spec = {
                    "unit": "u1",
                    "netlist_text": NETLIST,
                    "sanitize": "repair",
                    "probes": {"mid": 7.5},
                    "measurements": [
                        {"point": "V(top)", "value": [float("nan"), 6.0, 0.02, 0.02]}
                    ],
                }
                result = client.diagnose(spec)
                assert result["status"] == "degraded"
                assert result["diagnosis"]["degraded"]["dropped"] == ["V(top)"]


class TestServerIoChaos:
    def test_injected_dispatch_fault_is_a_structured_500(self):
        plan = FaultPlan.build(seed=0, server_io=1.0)
        config = ServerConfig(
            port=0, workers=2, queue_size=8, timeout=10.0,
            faults=plan.to_json(),
        )
        with RunningServer(config) as rs:
            conn = http.client.HTTPConnection("127.0.0.1", rs.server.port, timeout=10)
            try:
                conn.request("GET", "/healthz")
                first = conn.getresponse()
                body = json.loads(first.read())
                assert first.status == 500
                assert "InjectedFault" in body["error"]["message"]
                # The connection survived; the next request runs normally
                # (rate 1.0 still fires, but stays structured).
                conn.request("GET", "/healthz")
                second = conn.getresponse()
                assert second.status == 500
                json.loads(second.read())
            finally:
                conn.close()

    def test_bad_fault_plan_rejected_at_config_time(self):
        with pytest.raises(ValueError):
            ServerConfig(port=0, faults="{broken")


class TestSupervisedServer:
    def test_metrics_expose_the_supervisor(self):
        config = ServerConfig(
            port=0, workers=2, queue_size=8, timeout=10.0,
            supervise=True,
        )
        with RunningServer(config) as rs:
            with rs.client() as client:
                metrics = client.metrics()
                sup = metrics["supervisor"]
                assert sup["health"] == 1.0
                assert sup["quarantined"] == 0

    def test_unsupervised_metrics_say_so(self):
        with RunningServer() as rs:
            with rs.client() as client:
                assert client.metrics()["supervisor"] is None


class TestClientJitter:
    def _client(self, seed=0, backoff=0.1, max_delay=5.0):
        # Never connects — _delay is pure given the injected RNG.
        return DiagnosisClient(
            port=1, retries=0, backoff=backoff, max_delay=max_delay,
            rng=random.Random(seed),
        )

    def test_full_jitter_spans_the_window(self):
        client = self._client()
        delays = [client._delay(2, None) for _ in range(200)]
        ceiling = 0.1 * 2**2
        assert all(0.0 <= d <= ceiling for d in delays)
        # Full jitter, not equal jitter: draws land across the whole
        # window, including well below half the ceiling.
        assert min(delays) < ceiling * 0.25
        assert max(delays) > ceiling * 0.75

    def test_deterministic_with_a_seeded_rng(self):
        a = [self._client(seed=7)._delay(n, None) for n in range(6)]
        b = [self._client(seed=7)._delay(n, None) for n in range(6)]
        assert a == b

    def test_ceiling_respects_max_delay(self):
        client = self._client(max_delay=0.3)
        assert all(client._delay(10, None) <= 0.3 for _ in range(50))

    def test_retry_after_is_a_floor(self):
        client = self._client()
        error = ClientError(503, {})
        error.retry_after = "2.5"
        assert client._delay(0, error) == 2.5  # jitter window is [0, 0.1]

    def test_bad_retry_after_ignored(self):
        client = self._client()
        error = ClientError(503, {})
        error.retry_after = "soon"
        assert 0.0 <= client._delay(0, error) <= 0.1

    def test_default_rng_is_private_not_global(self):
        # Two clients must not share (or reseed) the module-global RNG.
        a = DiagnosisClient(port=1, retries=0)
        b = DiagnosisClient(port=1, retries=0)
        assert a.rng is not b.rng
        assert a.rng is not random
