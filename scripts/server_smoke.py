"""End-to-end smoke test for ``repro serve`` — the CI gate.

Launches the real CLI as a subprocess on an ephemeral port, waits for
``/healthz``, round-trips one ``POST /v1/diagnose`` on the demo
circuit, checks ``/metrics``, then sends SIGTERM and asserts a clean
(exit 0) drain.  Exits non-zero on any failure, so CI can run it as a
bare step:

    PYTHONPATH=src python scripts/server_smoke.py
"""

import sys

from _harness import reap, spawn, stop
from repro.circuit.faults import Fault, FaultKind, apply_fault
from repro.circuit.library import three_stage_amplifier
from repro.circuit.measurements import probe_all
from repro.circuit.simulate import DCSolver
from repro.circuit.spice import write_netlist
from repro.server import DiagnosisClient, ServerUnavailable
from repro.service.jobs import measurement_to_dict


def demo_spec():
    golden = three_stage_amplifier()
    op = DCSolver(apply_fault(golden, Fault(FaultKind.SHORT, "R2"))).solve()
    return {
        "unit": "smoke-unit",
        "netlist_text": write_netlist(golden),
        "measurements": [
            measurement_to_dict(m)
            for m in probe_all(op, ("vs", "v2", "v1"), imprecision=0.02)
        ],
    }


def main():
    process, port = spawn(["serve", "--port", "0", "--workers", "2"])
    try:
        client = DiagnosisClient(port=port, timeout=60, retries=6, backoff=0.2)
        health = client.health()
        assert health["status"] == "ok", health
        print(f"healthz ok on port {port}")

        result = client.diagnose(demo_spec())
        assert result["status"] == "ok", result
        assert result["diagnosis"]["status"] == "faulty", result["diagnosis"]["status"]
        top = sorted(
            result["diagnosis"]["suspicions"].items(), key=lambda kv: -kv[1]
        )[:3]
        print(f"diagnose ok: top suspects {top}")

        metrics = client.metrics()
        assert metrics["queue"]["admitted"] >= 1, metrics["queue"]
        print(f"metrics ok: {metrics['queue']['admitted']} request(s) admitted")
        client.close()

        stop(process)
        print("graceful drain ok (exit 0)")

        try:
            DiagnosisClient(port=port, retries=0, timeout=5).health()
        except ServerUnavailable:
            pass
        else:
            raise AssertionError("server still answering after drain")
        print("smoke test passed")
        return 0
    finally:
        reap(process)


if __name__ == "__main__":
    sys.exit(main())
