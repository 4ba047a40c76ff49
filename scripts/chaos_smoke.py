"""Chaos smoke test — the resilience plane's CI gate.

Two legs, both under a fixed-seed :class:`FaultPlan` (worker crashes,
worker hangs, corrupted cache entries), asserting the resilience
contract end to end:

1. **fleet** — a 40-unit batch through a supervised ``FleetEngine``
   (two passes, so the corrupt-cache path is exercised warm).  Every
   job must finish with a structured status; persistent failures must
   be quarantined, not retry-looped; the engine must not raise.
2. **server** — the real ``repro serve`` CLI as a subprocess with the
   plan armed (plus ``server.io`` dispatch faults) and the supervisor
   engaged.  Every request must come back as structured JSON — a 200
   result or a structured error body — the connection must survive
   injected dispatch faults, and SIGTERM must still drain cleanly
   (exit 0).

Exits non-zero on any violation, so CI can run it as a bare step:

    PYTHONPATH=src python scripts/chaos_smoke.py
"""

import http.client
import json
import sys
from collections import Counter

from _harness import reap, spawn, stop
from repro.resilience import FaultPlan, FaultRule, FleetSupervisor
from repro.service import FleetEngine
from repro.service.jobs import DiagnosisJob

NETLIST = (
    ".title divider\n"
    "Vin top 0 12\n"
    "Rtop top mid 10k tol=0.05\n"
    "Rbot mid 0 10k tol=0.05\n"
)

#: Structured terminal statuses — anything else is a contract violation.
STRUCTURED = {"ok", "degraded", "quarantined", "timeout", "interrupted"}

#: The fixed-seed chaos plan CI replays: crash + hang + corrupt.
PLAN = FaultPlan(
    seed=0,
    rules=(
        FaultRule("pool.worker_crash", rate=0.15),
        FaultRule("pool.worker_hang", rate=0.03, seconds=2.0),
        FaultRule("cache.corrupt", rate=0.5),
    ),
)


#: Jobs in the chaos batch.
JOBS = 40
#: Requests the server leg sends.
SERVER_REQUESTS = 30


def build_jobs():
    from repro.circuit.measurements import Measurement
    from repro.fuzzy import FuzzyInterval

    return [
        DiagnosisJob.build(
            f"unit-{i:02d}",
            NETLIST,
            [Measurement("V(mid)", FuzzyInterval.number(5.0 + i * 0.05, 0.02))],
            sanitize="repair",
        )
        for i in range(JOBS)
    ]


def fleet_leg():
    jobs = build_jobs()
    engine = FleetEngine(
        workers=4,
        executor="thread",
        timeout=0.5,
        retries=2,
        supervisor=FleetSupervisor(),
        fault_plan=PLAN,
    )
    statuses = Counter()
    for batch in (1, 2):
        report = engine.run_batch(jobs)
        assert len(report.results) == len(jobs), "a job went missing"
        for res in report.results:
            assert res.status in STRUCTURED, f"{res.unit}: unstructured {res.status!r}"
            if not res.completed:
                assert res.error, f"{res.unit}: failure without a reason"
        statuses.update(r.status for r in report.results)
    assert statuses["quarantined"] >= 1, "chaos never quarantined anything"
    snapshot = engine.cache.snapshot()
    assert snapshot["corruptions"] >= 1, "corrupt-cache path never exercised"
    survival = 100.0 * sum(
        statuses[s] for s in ("ok", "degraded")
    ) / sum(statuses.values())
    print(
        f"fleet leg ok: {dict(statuses)} over 2 passes, "
        f"{survival:.1f}% completed, "
        f"{snapshot['corruptions']} corrupt cache entr(ies) counted as misses"
    )
    return statuses


def server_leg():
    server_plan = FaultPlan(
        seed=0, rules=PLAN.rules + (FaultRule("server.io", rate=0.25),)
    )
    process, port = spawn(
        [
            "serve", "--port", "0", "--workers", "2",
            "--supervise", "--faults", server_plan.to_json(),
        ]
    )
    try:
        spec = {
            "unit": "chaos-unit",
            "netlist_text": NETLIST,
            "probes": {"mid": 7.5},
            "sanitize": "repair",
        }
        body = json.dumps(spec).encode()
        statuses = Counter()
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            for i in range(SERVER_REQUESTS):
                try:
                    conn.request(
                        "POST", "/v1/diagnose", body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    raw = response.read()
                except (OSError, http.client.HTTPException) as exc:
                    raise AssertionError(
                        f"request {i}: connection died ({exc!r}) — "
                        "an injected fault escaped the structured path"
                    ) from None
                payload = json.loads(raw)  # every answer is JSON, even 500s
                statuses[response.status] += 1
                if response.status == 200:
                    # A job whose worker keeps crashing surfaces as a
                    # structured "error"/"quarantined" result — still a
                    # well-formed answer, never a dropped connection.
                    assert payload["status"] in STRUCTURED | {"error"}, payload
                else:
                    assert "error" in payload, payload
        finally:
            conn.close()
        assert statuses[200] >= 1, f"no request survived: {dict(statuses)}"
        assert statuses.get(500, 0) >= 1, "server.io chaos never fired"
        print(f"server leg ok: HTTP statuses {dict(statuses)} over {SERVER_REQUESTS} requests")

        stop(process)
        print("graceful drain under chaos ok (exit 0)")
    finally:
        reap(process)


def main():
    fleet_leg()
    server_leg()
    print("chaos smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
