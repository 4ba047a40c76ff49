"""End-to-end smoke test for ``repro cluster`` — the CI gate.

Launches the real CLI as a subprocess: one gateway fronting two
``repro serve`` replicas, with a fault plan that hard-kills one replica
on the first supervision tick (``cluster.replica_kill``).  While that
chaos is in flight, a concurrent batch of diagnoses is fired through
the gateway — every single one must come back 200 (ring failover +
client rotation route around the corpse while the manager respawns
it).  Then the script checks that the kill/restart actually happened,
that a confirmed repair gossiped into the cluster ledger, and that
SIGTERM drains the whole tree cleanly (exit 0).  Exits non-zero on any
failure, so CI runs it as a bare step:

    PYTHONPATH=src python scripts/cluster_smoke.py
"""

import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from _harness import CLUSTER_PORT, reap, spawn, stop
from repro.circuit.faults import Fault, FaultKind, apply_fault
from repro.circuit.library import three_stage_amplifier
from repro.circuit.measurements import probe_all
from repro.circuit.simulate import DCSolver
from repro.circuit.spice import write_netlist
from repro.server import DiagnosisClient, ServerUnavailable
from repro.service.jobs import measurement_to_dict

#: One chaos kill, first supervision tick: deterministic, recoverable.
KILL_PLAN = json.dumps(
    {"seed": 0, "rules": [{"point": "cluster.replica_kill", "rate": 1.0, "limit": 1}]}
)


def demo_specs(count):
    """Distinct-content specs (varying defects) for the demo amplifier."""
    golden = three_stage_amplifier()
    netlist = write_netlist(golden)
    defects = [
        Fault(FaultKind.SHORT, "R2"),
        Fault(FaultKind.OPEN, "R3"),
        Fault(FaultKind.PARAM, "R2", parameter="resistance", value=12.18e3),
        Fault(FaultKind.SHORT, "R5"),
    ]
    benches = [
        probe_all(DCSolver(apply_fault(golden, f)).solve(), ("vs", "v2", "v1"), 0.02)
        for f in defects
    ]
    specs = []
    for i in range(count):
        spec = {
            "unit": f"smoke-{i:03d}",
            "netlist_text": netlist,
            "measurements": [
                measurement_to_dict(m) for m in benches[i % len(benches)]
            ],
        }
        if i == 0:
            # One confirmed repair: the gossip payload under test.
            spec["confirm"] = {"component": "R2", "mode": "short"}
        specs.append(spec)
    return specs


def main():
    process, port = spawn(
        [
            "cluster", "--port", "0", "--replicas", "2", "--workers", "2",
            "--poll-interval", "0.5", "--gossip-interval", "1.0",
            "--faults", KILL_PLAN,
        ],
        CLUSTER_PORT,
    )
    try:
        probe = DiagnosisClient(port=port, timeout=60, retries=6, backoff=0.2)
        ready = probe.ready()
        assert ready["replicas_ready"] == 2, ready
        print(f"gateway ready on port {port} with 2 replicas")

        # Fire the batch concurrently; the chaos kill lands ~0.5s in,
        # squarely mid-flight.  Zero dropped is the whole point.
        specs = demo_specs(24)

        def one(spec):
            with DiagnosisClient(
                port=port, timeout=120, retries=6, backoff=0.2
            ) as client:
                return client.diagnose(spec)

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(one, specs))
        wall = time.perf_counter() - start
        dropped = [r for r in results if r.get("status") != "ok"]
        assert not dropped, f"{len(dropped)} of {len(results)} requests dropped"
        print(f"batch ok: {len(results)}/{len(results)} answered in {wall:.1f}s, "
              "zero dropped")

        # The chaos kill must have fired and the manager recovered it.
        deadline = time.time() + 60
        fleet = {}
        while time.time() < deadline:
            fleet = probe.metrics()["fleet"]
            if fleet.get("kills_injected") and fleet.get("restarts_total"):
                break
            time.sleep(0.5)
        assert fleet.get("kills_injected", 0) >= 1, fleet
        assert fleet.get("restarts_total", 0) >= 1, fleet
        print(f"chaos ok: {fleet['kills_injected']} kill(s) injected, "
              f"{fleet['restarts_total']} restart(s)")

        # The confirmed repair must reach the cluster-wide ledger.
        deadline = time.time() + 60
        rules = []
        while time.time() < deadline:
            rules = probe._request("GET", "/v1/experience").get("rules", [])
            if rules:
                break
            time.sleep(0.5)
        assert any(r["component"] == "R2" for r in rules), rules
        print(f"gossip ok: {len(rules)} rule(s) in the cluster ledger")
        probe.close()

        stop(process)
        print("cascading drain ok (exit 0)")

        try:
            DiagnosisClient(port=port, retries=0, timeout=5).health()
        except ServerUnavailable:
            pass
        else:
            raise AssertionError("gateway still answering after drain")
        print("cluster smoke test passed")
        return 0
    finally:
        reap(process)


if __name__ == "__main__":
    sys.exit(main())
