"""Ablations over the design choices DESIGN.md calls out.

* **conflict threshold** — how much tolerance noise the engine records
  as nogoods; swept over the figure-7 scenarios.
* **entropy term form** — the paper's literal ``Fi (*) log2(1/Fi)``
  product against the extension-principle form used by default.
* **linguistic granularity** — size of the faultiness term scale used by
  the best-test planner.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.circuit.faults import apply_fault
from repro.circuit.library import three_stage_amplifier
from repro.circuit.measurements import probe_all
from repro.circuit.simulate import DCSolver
from repro.core.diagnosis import Flames, FlamesConfig
from repro.core.strategy import BestTestPlanner
from repro.experiments.figure7 import FIGURE7_SCENARIOS, IMPRECISION, Figure7Scenario
from repro.experiments.runner import format_table
from repro.fuzzy import FuzzyInterval, fuzzy_entropy
from repro.fuzzy.entropy import entropy_term, entropy_term_product_form
from repro.fuzzy.linguistic import faultiness_scale

__all__ = [
    "run_threshold_ablation",
    "run_entropy_form_ablation",
    "run_granularity_ablation",
    "run_envelope_validation",
    "format_ablation",
]

#: The conflict thresholds the threshold ablation sweeps.
THRESHOLDS = (0.01, 0.05, 0.2, 0.5)
#: The fixed three-component system the entropy forms are compared on.
ESTIMATIONS = (
    FuzzyInterval(0.2, 0.3, 0.05, 0.05),
    FuzzyInterval(0.5, 0.5, 0.1, 0.1),
    FuzzyInterval(0.8, 0.9, 0.05, 0.05),
)
#: The linguistic-scale sizes the granularity ablation sweeps.
GRANULARITIES = (3, 5, 7, 9)
#: The probe nets, Monte Carlo sample count and seed of the envelope check.
ENVELOPE_NETS = ("v1", "v2", "vs")
ENVELOPE_SAMPLES = 120
ENVELOPE_SEED = 9


def _scenario_measurements(scenario: Figure7Scenario):
    golden = three_stage_amplifier()
    op = DCSolver(apply_fault(golden, scenario.fault)).solve()
    return probe_all(op, ["vs", "v2", "v1"], imprecision=IMPRECISION)


def run_threshold_ablation() -> List[Tuple[float, int, int]]:
    """(threshold, faults detected, total nogoods) over the scenarios."""
    rows = []
    for threshold in THRESHOLDS:
        engine = Flames(
            three_stage_amplifier(), FlamesConfig(conflict_threshold=threshold)
        )
        detected = 0
        nogoods = 0
        for scenario in FIGURE7_SCENARIOS:
            result = engine.diagnose(_scenario_measurements(scenario))
            detected += 0 if result.is_consistent else 1
            nogoods += len(result.nogoods)
        rows.append((threshold, detected, nogoods))
    return rows


def run_entropy_form_ablation() -> List[Tuple[str, float, float]]:
    """(form, entropy centroid, entropy width) for a fixed system."""
    rows = []
    for name, term in (
        ("extension-principle", entropy_term),
        ("paper product form", entropy_term_product_form),
    ):
        ent = fuzzy_entropy(ESTIMATIONS, term=term)
        rows.append((name, ent.centroid, ent.width))
    return rows


def run_granularity_ablation() -> List[Tuple[int, str, float]]:
    """(granularity, recommended probe, expected-entropy score) on scenario 1."""
    engine = Flames(three_stage_amplifier())
    result = engine.diagnose(_scenario_measurements(FIGURE7_SCENARIOS[0]))
    rows = []
    for granularity in GRANULARITIES:
        planner = BestTestPlanner(engine, scale=faultiness_scale(granularity))
        best = planner.best(result)
        rows.append(
            (granularity, best.point if best else "-", best.score if best else 0.0)
        )
    return rows


def run_envelope_validation() -> List[Tuple[str, float, float, float, float]]:
    """Validate the fuzzy prediction envelopes against reference analyses.

    Per probe net: (net, envelope width, Monte Carlo observed range,
    worst-case corner band width, Monte Carlo coverage fraction).  The
    envelopes must cover the sampled behaviour (coverage 1.0) while not
    being wildly wider than the true worst-case band.
    """
    from repro.circuit.analysis import monte_carlo, worst_case
    from repro.core.predict import predict_nominal

    golden = three_stage_amplifier()
    predictions = predict_nominal(golden)
    nets = list(ENVELOPE_NETS)
    sampled = monte_carlo(golden, samples=ENVELOPE_SAMPLES, seed=ENVELOPE_SEED, nets=nets)
    corners = worst_case(golden, nets=nets, exhaustive_limit=3)
    rows = []
    for net in nets:
        envelope = predictions[f"V({net})"].value
        lo, hi = envelope.support
        values = sampled.voltages[net]
        covered = sum(1 for v in values if lo <= v <= hi) / len(values)
        corner_lo, corner_hi = corners.band(net)
        rows.append(
            (
                net,
                envelope.width,
                sampled.maximum(net) - sampled.minimum(net),
                corner_hi - corner_lo,
                covered,
            )
        )
    return rows


def format_ablation() -> str:
    sections = []
    sections.append(
        "conflict-threshold ablation (figure-7 scenarios)\n"
        + format_table(
            ["threshold", "faults detected /5", "total nogoods"],
            [(f"{t:.2f}", d, n) for t, d, n in run_threshold_ablation()],
        )
    )
    sections.append(
        "entropy term form\n"
        + format_table(
            ["form", "entropy centroid", "entropy width"],
            [(n, f"{c:.3f}", f"{w:.3f}") for n, c, w in run_entropy_form_ablation()],
        )
    )
    sections.append(
        "linguistic granularity (best-test choice, scenario 1)\n"
        + format_table(
            ["granularity", "recommended probe", "expected entropy"],
            [(g, p, f"{s:.3f}") for g, p, s in run_granularity_ablation()],
        )
    )
    sections.append(
        "prediction envelopes vs Monte Carlo vs worst-case corners\n"
        + format_table(
            ["net", "fuzzy envelope width", "MC observed range", "corner band", "MC coverage"],
            [
                (net, f"{env:.3f}", f"{mc:.3f}", f"{corner:.3f}", f"{cov:.2f}")
                for net, env, mc, corner, cov in run_envelope_validation()
            ],
        )
    )
    return "\n\n".join(sections)
