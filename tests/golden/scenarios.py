"""Golden-file scenarios: three library circuits, fixed faults/probes.

Shared between the snapshot test and the regeneration entry point:

    PYTHONPATH=src python tests/golden/scenarios.py   # rewrite *.json

Regenerate only when an intentional semantic change lands — the
snapshots are the engine's word on what a diagnosis says.
"""

import json
from pathlib import Path

from repro.circuit.faults import Fault, FaultKind, apply_fault
from repro.circuit.library import (
    amplifier_cascade,
    diode_resistor_circuit,
    three_stage_amplifier,
)
from repro.circuit.measurements import probe_all
from repro.circuit.simulate import DCSolver
from repro.core.diagnosis import Flames
from repro.service.jobs import diagnosis_to_dict

GOLDEN_DIR = Path(__file__).parent

SCENARIOS = {
    "cascade_gain_drift": (
        amplifier_cascade,
        Fault(FaultKind.PARAM, "amp2", "gain", 0.2),
        ["a", "b", "c", "d"],
    ),
    "diode_short_r1": (
        diode_resistor_circuit,
        Fault(FaultKind.SHORT, "r1"),
        ["vin", "n1", "n2"],
    ),
    "amp_short_r2": (
        three_stage_amplifier,
        Fault(FaultKind.SHORT, "R2"),
        ["vs", "v1", "v2", "n1", "n2"],
    ),
}


def run_scenario(name):
    """The diagnosis_to_dict payload for one named scenario."""
    maker, fault, nets = SCENARIOS[name]
    golden = maker()
    op = DCSolver(apply_fault(golden, fault)).solve()
    measurements = probe_all(op, nets, imprecision=0.02)
    result = Flames(golden).diagnose(measurements)
    return diagnosis_to_dict(result)


def golden_path(name):
    return GOLDEN_DIR / f"{name}.json"


def main():
    for name in SCENARIOS:
        payload = run_scenario(name)
        golden_path(name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {golden_path(name)}")


if __name__ == "__main__":
    main()
