"""Best-test strategy evaluation (paper §8).

The paper gives no table for the strategy unit ("best test strategies
have been successfully tried on digital circuits"), so the evaluation is
the natural one: sequential fault isolation.  Starting from the output
measurement alone, each planner repeatedly picks the next probe; after
every probe the engine re-diagnoses, and the episode ends when the
single-fault candidate set is pinned down (or every point is probed).
Reported: probes needed per planner, averaged over a fault catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.probabilistic import GdeTestPlanner, RandomProbePlanner
from repro.circuit.faults import Fault, FaultKind, apply_fault
from repro.circuit.library import three_stage_amplifier
from repro.circuit.measurements import Measurement, probe
from repro.circuit.simulate import DCSolver, OperatingPoint
from repro.core.diagnosis import DiagnosisResult, Flames
from repro.core.strategy import BestTestPlanner
from repro.experiments.runner import format_table

__all__ = [
    "EpisodeOutcome",
    "run_strategy_eval",
    "run_strategy_eval_ladder",
    "format_strategy_eval",
    "DEFAULT_FAULTS",
    "LADDER_FAULTS",
]

#: Fault catalogue used by the evaluation.
DEFAULT_FAULTS: Tuple[Fault, ...] = (
    Fault(FaultKind.SHORT, "R2"),
    Fault(FaultKind.OPEN, "R3"),
    Fault(FaultKind.OPEN, "R6"),
    Fault(FaultKind.PARAM, "R3", value=28e3),
    Fault(FaultKind.PARAM, "R4", value=4.2e3),
    Fault(FaultKind.NODE_OPEN, "T1", pin="b"),
)
#: An episode ends once at most this many smallest diagnoses remain.
TARGET_SIZE = 3
#: Base seed of the random planner (offset by the fault's index).
SEED = 7


@dataclass(frozen=True)
class EpisodeOutcome:
    planner: str
    fault: str
    probes_used: int
    isolated: bool
    final_candidates: Tuple[str, ...]
    culprit_found: bool = False


def _isolated(result: DiagnosisResult) -> bool:
    """Isolation criterion: few enough smallest minimal diagnoses.

    Judged on the hitting sets, not on suspicion ties: two overlapping
    nogoods tie every member at suspicion 1, while their *intersection*
    is what the minimal single-fault diagnoses capture.
    """
    if result.is_consistent or not result.diagnoses:
        return False
    smallest = min(d.size for d in result.diagnoses)
    leaders = [d for d in result.diagnoses if d.size == smallest]
    return len(leaders) <= TARGET_SIZE


def run_episode(
    engine: Flames,
    op: OperatingPoint,
    choose: Callable[[DiagnosisResult], Optional[str]],
    imprecision: float = 0.02,
    start_point: str = "vs",
) -> Tuple[int, DiagnosisResult]:
    """Probe sequentially until isolation; returns (#probes, final result)."""
    measurements: List[Measurement] = [probe(op, start_point, imprecision)]
    result = engine.diagnose(measurements)
    probes_used = 1
    while not _isolated(result):
        point = choose(result)
        if point is None:
            break
        net = point[2:-1]
        measurements.append(probe(op, net, imprecision))
        result = engine.diagnose(measurements)
        probes_used += 1
    return probes_used, result


def run_strategy_eval(
    faults: Sequence[Fault] = DEFAULT_FAULTS,
    imprecision: float = 0.02,
    golden=None,
    start_point: str = "vs",
) -> List[EpisodeOutcome]:
    golden = golden if golden is not None else three_stage_amplifier()
    engine = Flames(golden)
    planners: Dict[str, Callable[[DiagnosisResult], Optional[str]]] = {}

    fuzzy_planner = BestTestPlanner(engine)
    planners["fuzzy-entropy"] = lambda r: (
        fuzzy_planner.best(r).point if fuzzy_planner.best(r) else None
    )
    gde_planner = GdeTestPlanner(engine)
    planners["gde-probabilistic"] = lambda r: (
        gde_planner.best(r).point if gde_planner.best(r) else None
    )

    outcomes: List[EpisodeOutcome] = []
    for fault_index, fault in enumerate(faults):
        op = DCSolver(apply_fault(golden, fault)).solve()
        for name, choose in planners.items():
            probes_used, result = run_episode(
                engine, op, choose, imprecision, start_point
            )
            candidates = tuple(n for n, _ in result.ranked_components()[:4])
            outcomes.append(
                EpisodeOutcome(
                    name,
                    fault.describe(),
                    probes_used,
                    _isolated(result),
                    candidates,
                    fault.component in candidates,
                )
            )
        # The random planner is stateful (its RNG); rebuild per fault with
        # a deterministic fault-specific seed (str hashes are salted per
        # process, so hash() would make the experiment unrepeatable).
        random_planner = RandomProbePlanner(engine, seed=SEED + fault_index)
        choose_random = lambda r: (
            random_planner.best(r).point if random_planner.best(r) else None
        )
        probes_used, result = run_episode(
            engine, op, choose_random, imprecision, start_point
        )
        candidates = tuple(n for n, _ in result.ranked_components()[:4])
        outcomes.append(
            EpisodeOutcome(
                "random",
                fault.describe(),
                probes_used,
                _isolated(result),
                candidates,
                fault.component in candidates,
            )
        )
    return outcomes


#: Fault catalogue for the ladder workload (more probe points, so probe
#: *order* matters more than on the three-stage amplifier).
LADDER_FAULTS: Tuple[Fault, ...] = (
    Fault(FaultKind.OPEN, "Rs2"),
    Fault(FaultKind.SHORT, "Rp3"),
    Fault(FaultKind.OPEN, "Rp1"),
    Fault(FaultKind.SHORT, "Rp5"),
)
#: Sections of the ladder, and the half-width (volts) of its probe readings.
LADDER_SECTIONS = 5
LADDER_IMPRECISION = 0.01


def run_strategy_eval_ladder() -> List[EpisodeOutcome]:
    """The same evaluation on a generated resistor ladder."""
    from repro.circuit.generators import resistor_ladder

    return run_strategy_eval(
        faults=LADDER_FAULTS,
        imprecision=LADDER_IMPRECISION,
        golden=resistor_ladder(LADDER_SECTIONS),
        start_point=f"n{LADDER_SECTIONS}",
    )


def format_strategy_eval(outcomes: List[EpisodeOutcome]) -> str:
    table = format_table(
        ["fault", "planner", "probes", "isolated", "culprit found", "top candidates"],
        [
            (o.fault, o.planner, o.probes_used, "yes" if o.isolated else "no",
             "yes" if o.culprit_found else "NO",
             ",".join(o.final_candidates))
            for o in outcomes
        ],
    )
    averages: Dict[str, List[int]] = {}
    for o in outcomes:
        averages.setdefault(o.planner, []).append(o.probes_used)
    summary = format_table(
        ["planner", "mean probes", "episodes isolated", "culprit found"],
        [
            (
                planner,
                f"{sum(counts) / len(counts):.2f}",
                sum(1 for o in outcomes if o.planner == planner and o.isolated),
                sum(1 for o in outcomes if o.planner == planner and o.culprit_found),
            )
            for planner, counts in sorted(averages.items())
        ],
    )
    return (
        "best-test strategies — sequential fault isolation\n"
        + table
        + "\n\nsummary (lower probes is better)\n"
        + summary
    )
