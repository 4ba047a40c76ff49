"""End-to-end gateway tests over in-process replicas.

Two real :class:`DiagnosisServer`\\ s run on background threads (the
``tests/server`` harness); the gateway fronts them through a
:class:`StaticFleet`, so routing, failover, batch sharding, metric
aggregation and gossip are all exercised over real sockets — only the
subprocess spawning is left to the smoke script.
"""

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.cluster import ClusterConfig, ClusterGateway, StaticFleet
from repro.resilience import FaultPlan, faults
from repro.server import ClientError, DiagnosisClient
from repro.service import job_from_spec
from tests.server.test_server import NETLIST, RunningServer


def make_spec(index, confirm=None):
    """A divider-circuit job spec whose content (and hash) varies by index."""
    spec = {
        "unit": f"unit-{index}",
        "netlist_text": NETLIST,
        "probes": {"mid": 4.0 + index * 0.01},
    }
    if confirm:
        spec["confirm"] = {"component": confirm[0], "mode": confirm[1]}
    return spec


def spec_routed_to(gateway, rid, start=0, confirm=None):
    """A spec whose content hash lands on replica ``rid``."""
    for index in range(start, start + 500):
        spec = make_spec(index, confirm=confirm)
        if gateway.ring.route(job_from_spec(spec, 0).content_hash) == rid:
            return spec
    raise AssertionError(f"no spec routed to {rid}")  # pragma: no cover


class RunningCluster:
    """A gateway over a StaticFleet of already-running backends.

    Poll/gossip intervals are set far beyond the test's lifetime — the
    tests drive ``fleet.poll_once`` and ``gateway.gossip_round``
    explicitly so nothing races the assertions.
    """

    def __init__(self, backends):
        endpoints = [f"127.0.0.1:{backend.server.port}" for backend in backends]
        self.config = ClusterConfig(
            port=0,
            replicas=len(endpoints),
            poll_interval=600.0,
            gossip_interval=600.0,
            timeout=10.0,
        )
        self.gateway = ClusterGateway(self.config, fleet=StaticFleet(endpoints))
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self.gateway.serve())
        finally:
            self.loop.close()

    def __enter__(self):
        self.thread.start()
        deadline = time.time() + 10
        while self.gateway.port is None and time.time() < deadline:
            time.sleep(0.01)
        assert self.gateway.port, "gateway did not bind in time"
        return self

    def __exit__(self, *exc_info):
        if self.thread.is_alive():
            try:
                self.loop.call_soon_threadsafe(self.gateway.request_shutdown)
            except RuntimeError:
                pass
        self.thread.join(timeout=15.0)
        assert not self.thread.is_alive(), "gateway did not drain in time"

    def client(self, **kwargs):
        kwargs.setdefault("timeout", 10.0)
        kwargs.setdefault("backoff", 0.05)
        kwargs.setdefault("max_delay", 0.2)
        return DiagnosisClient(port=self.gateway.port, **kwargs)

    def counters(self):
        return self.gateway.telemetry.snapshot()["counters"]


class TestGatewayBasics:
    def test_health_ready_and_metrics_shape(self):
        with RunningServer() as b0, RunningServer() as b1:
            with RunningCluster([b0, b1]) as rc:
                with rc.client() as client:
                    assert client.health()["status"] == "ok"
                    ready = client.ready()
                    assert ready["status"] == "ready"
                    assert ready["replicas_ready"] == 2
                    metrics = client.metrics()
                    assert metrics["ring"]["nodes"] == ["r0", "r1"]
                    assert set(metrics["fleet"]["replicas"]) == {"r0", "r1"}
                    assert "gossip" in metrics
                    json.dumps(metrics)  # JSON-safe end to end

    def test_unknown_route_404(self):
        with RunningServer() as b0:
            with RunningCluster([b0]) as rc:
                with rc.client(retries=0) as client:
                    with pytest.raises(ClientError) as err:
                        client._request("GET", "/nope")
                    assert err.value.status == 404

    def test_bad_spec_is_a_gateway_400(self):
        with RunningServer() as b0:
            with RunningCluster([b0]) as rc:
                with rc.client(retries=0) as client:
                    with pytest.raises(ClientError) as err:
                        client.diagnose({"unit": "u", "probes": {"mid": 1.0}})
                    assert err.value.status == 400


class TestTraceJoin:
    def test_trace_query_returns_span_tree_joined_to_request_id(self):
        with RunningServer() as b0:
            with RunningCluster([b0]) as rc:
                with rc.client() as client:
                    result = client.diagnose(make_spec(0), trace=True)
        trace = result["trace"]
        assert trace["trace_id"] == result["request_id"]
        assert result["request_id"].startswith("cli-")
        names = [span["name"] for span in trace["spans"]]
        assert "diagnose" in names

    def test_minted_gateway_id_reaches_the_replica(self):
        with RunningServer() as b0:
            with RunningCluster([b0]) as rc:
                conn = http.client.HTTPConnection("127.0.0.1", rc.gateway.port, timeout=10)
                conn.request(
                    "POST", "/v1/diagnose?trace=1", body=json.dumps(make_spec(1)),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                result = json.loads(response.read())
                conn.close()
        assert response.status == 200
        assert result["request_id"].startswith("gw-")
        assert response.getheader("X-Request-Id") == result["request_id"]
        assert result["trace"]["trace_id"] == result["request_id"]


class TestTeardown:
    def test_forwarding_clients_closed_on_exit(self):
        with RunningServer() as b0, RunningServer() as b1:
            with RunningCluster([b0, b1]) as rc:
                with rc.client() as client:
                    client.diagnose(spec_routed_to(rc.gateway, "r0"))
                    client.batch([make_spec(i) for i in range(4)])
                rc.gateway.gossip_round(0)
                clients = list(rc.gateway._clients)
                sockets = [c for fc in clients for c in fc._conns.values()]
                assert clients and sockets
        assert all(not fc._conns for fc in clients)
        assert all(conn.sock is None for conn in sockets)


class TestRouting:
    def test_same_content_sticks_to_one_replica(self):
        # Sticky sharding keeps a circuit's shard-owner cache warm: the
        # repeat request must be a cache hit, which can only happen if
        # both requests landed on the same replica.
        with RunningServer() as b0, RunningServer() as b1:
            with RunningCluster([b0, b1]) as rc:
                spec = spec_routed_to(rc.gateway, "r0")
                with rc.client() as client:
                    first = client.diagnose(spec)
                    second = client.diagnose(spec)
                assert first["status"] == "ok"
                assert second["cache_hit"] is True
                counters = rc.counters()
                assert counters.get("routed.r0") == 2
                assert "routed.r1" not in counters

    def test_distinct_content_spreads_across_replicas(self):
        with RunningServer() as b0, RunningServer() as b1:
            with RunningCluster([b0, b1]) as rc:
                with rc.client() as client:
                    client.diagnose(spec_routed_to(rc.gateway, "r0"))
                    client.diagnose(spec_routed_to(rc.gateway, "r1"))
                counters = rc.counters()
                assert counters.get("routed.r0") == 1
                assert counters.get("routed.r1") == 1

    def test_failover_to_next_ring_replica_on_dead_primary(self):
        b0 = RunningServer().__enter__()
        with RunningServer() as b1:
            with RunningCluster([b0, b1]) as rc:
                spec = spec_routed_to(rc.gateway, "r0")
                b0.shutdown()  # the shard owner dies mid-flight
                with rc.client() as client:
                    result = client.diagnose(spec)
                assert result["status"] == "ok"
                counters = rc.counters()
                assert counters.get("ring_failovers", 0) >= 1
                assert counters.get("routed.r1") == 1


class TestBatchSharding:
    def test_batch_splits_by_ring_and_reassembles_in_order(self):
        with RunningServer() as b0, RunningServer() as b1:
            with RunningCluster([b0, b1]) as rc:
                specs = [
                    spec_routed_to(rc.gateway, "r0"),
                    spec_routed_to(rc.gateway, "r1"),
                    spec_routed_to(rc.gateway, "r0", start=100),
                ]
                with rc.client() as client:
                    report = client.batch(specs)
                units = [result["unit"] for result in report["results"]]
                assert units == [spec["unit"] for spec in specs]
                assert all(r["status"] == "ok" for r in report["results"])
                assert report["shards"] == {"r0": 2, "r1": 1}


class TestAggregatedMetrics:
    def test_cluster_telemetry_sums_replica_counters(self):
        with RunningServer() as b0, RunningServer() as b1:
            with RunningCluster([b0, b1]) as rc:
                with rc.client() as client:
                    client.diagnose(spec_routed_to(rc.gateway, "r0"))
                    client.diagnose(spec_routed_to(rc.gateway, "r1"))
                    # One explicit health tick pulls /metrics?samples=1
                    # from every replica into the aggregation cache.
                    rc.gateway.fleet.poll_once(1)
                    metrics = client.metrics()
                merged = metrics["cluster_telemetry"]
                assert merged is not None
                # Both replicas served one diagnose each; the merged
                # counter must see both (plus our probe traffic).
                assert merged["counters"]["http_requests"] >= 2
                assert any(
                    name.startswith("http_seconds_POST /v1/diagnose")
                    for name in merged["observations"]
                )
                json.dumps(metrics)


class TestGossipConvergence:
    def test_confirmed_repair_reaches_the_other_replica(self):
        with RunningServer() as b0, RunningServer() as b1:
            with RunningCluster([b0, b1]) as rc:
                spec = spec_routed_to(rc.gateway, "r0", confirm=("Rbot", "short"))
                with rc.client() as client:
                    client.diagnose(spec)  # r0 learns the rule locally
                rc.gateway.gossip_round(1)
                with DiagnosisClient(port=b1.server.port) as direct:
                    learned = direct.experience()
                assert len(learned["rules"]) == 1
                rule = learned["rules"][0]
                assert rule["component"] == "Rbot"
                assert rule["occurrences"] == 1

    def test_occurrences_do_not_inflate_over_rounds(self):
        with RunningServer() as b0, RunningServer() as b1:
            with RunningCluster([b0, b1]) as rc:
                spec = spec_routed_to(rc.gateway, "r0", confirm=("Rbot", "short"))
                with rc.client() as client:
                    client.diagnose(spec)
                for round_no in range(1, 4):
                    rc.gateway.gossip_round(round_no)
                for backend in (b0, b1):
                    with DiagnosisClient(port=backend.server.port) as direct:
                        rules = direct.experience()["rules"]
                    assert len(rules) == 1
                    assert rules[0]["occurrences"] == 1, backend.server.port
                assert rc.gateway.gossip.export()["rules"][0]["occurrences"] == 1

    def test_dropped_delivery_is_retried_next_round(self):
        plan = FaultPlan.from_spec(
            {"seed": 0, "rules": [{"point": "cluster.gossip_drop", "rate": 1.0, "limit": 1}]}
        )
        faults.install_plan(plan)
        try:
            with RunningServer() as b0, RunningServer() as b1:
                with RunningCluster([b0, b1]) as rc:
                    spec = spec_routed_to(rc.gateway, "r0", confirm=("Rbot", "short"))
                    with rc.client() as client:
                        client.diagnose(spec)
                    rc.gateway.gossip_round(1)  # delivery eaten by chaos
                    assert rc.gateway.gossip.snapshot()["dropped"] == 1
                    with DiagnosisClient(port=b1.server.port) as direct:
                        assert direct.experience()["rules"] == []
                    rc.gateway.gossip_round(2)  # retried and delivered
                    with DiagnosisClient(port=b1.server.port) as direct:
                        rules = direct.experience()["rules"]
                    assert len(rules) == 1 and rules[0]["occurrences"] == 1
        finally:
            faults.uninstall_plan()
