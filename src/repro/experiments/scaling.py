"""Scaling study: the §6 claim that fuzzy intervals avoid explosions.

The paper argues that (a) crisp intervals "contain all sorts of
inaccuracy without any distinction which can cause an explosion in the
value propagation" and (b) the weighted-nogood list "allows to restrict
the effect of explosion" in candidate sets.  This driver sweeps circuit
size over the generated single-path amplifier chains, injects a soft
gain fault mid-chain, and measures for both engines:

* the relative spread of the prediction at the chain output (value
  propagation growth),
* whether the soft fault is detected at all (crisp masking),
* the number of recorded nogoods and of minimal candidates,
* wall-clock diagnosis time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

from repro.baselines.crisp_propagation import CrispDiagnoser
from repro.circuit.faults import Fault, FaultKind, apply_fault
from repro.circuit.generators import amplifier_chain
from repro.circuit.measurements import probe_all
from repro.circuit.simulate import DCSolver
from repro.core.diagnosis import Flames
from repro.experiments.runner import format_table

__all__ = ["ScalingRow", "run_scaling", "format_scaling"]

#: Chain lengths the sweep diagnoses, row by row.
STAGE_COUNTS = (2, 4, 6, 8, 10)
#: The middle stage's gain drifts by this factor.
DRIFT_RATIO = 1.06
#: Half-width (volts) of every probe reading.
IMPRECISION = 0.01


@dataclass(frozen=True)
class ScalingRow:
    stages: int
    fuzzy_spread: float
    crisp_spread: float
    fuzzy_detected: bool
    crisp_detected: bool
    fuzzy_nogoods: int
    crisp_nogoods: int
    fuzzy_candidates: int
    fuzzy_seconds: float
    crisp_seconds: float


def _relative_spread(interval, nominal: float) -> float:
    if nominal == 0.0:
        return interval.width
    return interval.width / abs(nominal)


def run_scaling() -> List[ScalingRow]:
    rows: List[ScalingRow] = []
    for stages in STAGE_COUNTS:
        golden = amplifier_chain(stages)
        faulty_component = f"amp{max(1, stages // 2)}"
        nominal_gain = golden.component(faulty_component).gain
        fault = Fault(
            FaultKind.PARAM, faulty_component, "gain", nominal_gain * DRIFT_RATIO
        )
        op = DCSolver(apply_fault(golden, fault)).solve()
        probes = [f"s{i}" for i in range(1, stages + 1)]
        measurements = probe_all(op, probes, imprecision=IMPRECISION)

        fuzzy_engine = Flames(amplifier_chain(stages))
        start = time.perf_counter()
        fuzzy_result = fuzzy_engine.diagnose(measurements)
        fuzzy_seconds = time.perf_counter() - start

        crisp_engine = CrispDiagnoser(amplifier_chain(stages))
        start = time.perf_counter()
        crisp_result = crisp_engine.diagnose(measurements)
        crisp_seconds = time.perf_counter() - start

        output = f"V(s{stages})"
        nominal_output = DCSolver(golden).solve().voltage(f"s{stages}")
        rows.append(
            ScalingRow(
                stages=stages,
                fuzzy_spread=_relative_spread(
                    fuzzy_result.predictions[output], nominal_output
                ),
                crisp_spread=_relative_spread(
                    crisp_result.predictions[output], nominal_output
                ),
                fuzzy_detected=not fuzzy_result.is_consistent,
                crisp_detected=not crisp_result.is_consistent,
                fuzzy_nogoods=len(fuzzy_result.nogoods),
                crisp_nogoods=len(crisp_result.nogoods),
                fuzzy_candidates=len(fuzzy_result.diagnoses),
                fuzzy_seconds=fuzzy_seconds,
                crisp_seconds=crisp_seconds,
            )
        )
    return rows


def format_scaling(rows: List[ScalingRow]) -> str:
    table = format_table(
        [
            "stages",
            "fuzzy spread",
            "crisp spread",
            "fuzzy detects",
            "crisp detects",
            "fuzzy nogoods",
            "crisp nogoods",
            "candidates",
            "fuzzy s",
            "crisp s",
        ],
        [
            (
                r.stages,
                f"{r.fuzzy_spread:.3f}",
                f"{r.crisp_spread:.3f}",
                "yes" if r.fuzzy_detected else "no",
                "yes" if r.crisp_detected else "no",
                r.fuzzy_nogoods,
                r.crisp_nogoods,
                r.fuzzy_candidates,
                f"{r.fuzzy_seconds:.2f}",
                f"{r.crisp_seconds:.2f}",
            )
            for r in rows
        ],
    )
    return "scaling — soft mid-chain gain fault, fuzzy vs crisp engine\n" + table
