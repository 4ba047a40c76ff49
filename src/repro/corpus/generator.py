"""Seeded scenario-corpus generation.

Every scenario is deterministic from the ``(seed, scenario-class)``
pair: each class draws from its own ``random.Random(f"{seed}/{class}")``
stream, so adding, removing or re-ordering *other* classes never
changes what a class generates, and two runs with the same recipe are
byte-identical (string seeding is platform-stable).

Scenario classes
----------------

``single-hard``
    One catastrophic defect (open/short) on one component.
``single-drift``
    One parametric defect: the component's main parameter drifts well
    outside its tolerance band (3-10x), in either direction.
``multi-fault``
    Two simultaneous independent defects on distinct components — the
    paper's multifault experiments at corpus scale.
``intermittent``
    A hard defect present in only a subset of the bench readings (the
    rest see the golden unit).  The fuzzy-ATMS prediction (Fringuelli
    et al.): contradictory evidence surfaces as *low-degree* nogoods —
    weighted nogoods whose inconsistency degree stays below the hard
    1.0 a persistent defect produces.
``tempco-drift``
    A temperature sweep: every component drifts by its temperature
    coefficient times the sweep delta (benign, ~100 ppm/K), except one
    culprit whose anomalous tempco carries it far outside tolerance —
    the proactive-maintenance "degradation over time" workload.
``tolerance-stackup``
    Every component drifts *within* (or marginally beyond) its
    tolerance band and there is no defect at all.  The right answer is
    "no single culprit": the engine must not indict any component with
    certainty.

Each class sweeps all five topology families (ladder, amplifier chain,
divider tree, resistive mesh, bridge cascade) across a size sweep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.circuit.components import Amplifier, Resistor
from repro.circuit.faults import Fault, FaultKind, apply_faults
from repro.circuit.generators import (
    amplifier_chain,
    bridge_cascade,
    divider_tree,
    mesh_grid,
    resistor_ladder,
)
from repro.circuit.measurements import Measurement, probe
from repro.circuit.netlist import Circuit
from repro.circuit.simulate import DCSolver, OperatingPoint, SimulationError
from repro.circuit.spice import write_netlist
from repro.corpus.metrics import CERTAIN
from repro.corpus.scenarios import CorpusManifest, Scenario

__all__ = ["CLASSES", "FAMILIES", "TopologyFamily", "generate_corpus", "class_rng"]

#: Instrument imprecision (volts) used for every corpus reading.
IMPRECISION = 0.02

#: Relative drift band (in multiples of the part tolerance) for
#: single-drift defects: far enough outside tolerance to be observable.
DRIFT_BAND = (3.0, 10.0)

#: Benign vs anomalous temperature coefficients (per kelvin).
TEMPCO_BENIGN = (50e-6, 150e-6)
TEMPCO_BAD = (2500e-6, 6000e-6)

#: Temperature sweep deltas (kelvin above the 25C datasheet point).
TEMPCO_DELTAS = (40.0, 60.0, 80.0)


@dataclass(frozen=True)
class TopologyFamily:
    """One generated-netlist family plus its probe/fault conventions."""

    name: str
    sizes: Tuple[object, ...]
    build: Callable[[object, random.Random], Circuit]
    probe_nets: Callable[[Circuit], List[str]]

    def faultable(self, circuit: Circuit) -> List[str]:
        """Components a defect may strike (passives and gain blocks)."""
        return [
            c.name
            for c in circuit.components
            if isinstance(c, (Resistor, Amplifier))
        ]


def _nets_except_source(circuit: Circuit, driven: str) -> List[str]:
    return [n.name for n in circuit.non_ground_nets if n.name != driven]


FAMILIES: Tuple[TopologyFamily, ...] = (
    TopologyFamily(
        name="ladder",
        sizes=(3, 4, 5, 6),
        build=lambda size, rng: resistor_ladder(int(size), rng=rng),
        probe_nets=lambda c: _nets_except_source(c, "in"),
    ),
    TopologyFamily(
        name="amp-chain",
        sizes=(3, 5, 7),
        build=lambda size, rng: amplifier_chain(int(size), rng=rng),
        probe_nets=lambda c: _nets_except_source(c, "s0"),
    ),
    TopologyFamily(
        name="divider-tree",
        sizes=(2, 3),
        build=lambda size, rng: divider_tree(int(size), rng=rng),
        probe_nets=lambda c: _nets_except_source(c, "t"),
    ),
    TopologyFamily(
        name="mesh",
        sizes=((2, 2), (2, 3), (3, 3)),
        build=lambda size, rng: mesh_grid(size[0], size[1], rng=rng),
        probe_nets=lambda c: _nets_except_source(c, "m0c0"),
    ),
    TopologyFamily(
        name="bridge",
        sizes=(1, 2, 3),
        build=lambda size, rng: bridge_cascade(int(size), rng=rng),
        probe_nets=lambda c: _nets_except_source(c, "b0"),
    ),
)

CLASSES: Tuple[str, ...] = (
    "single-hard",
    "single-drift",
    "multi-fault",
    "intermittent",
    "tempco-drift",
    "tolerance-stackup",
)


def class_rng(seed: int, scenario_class: str) -> random.Random:
    """The deterministic random stream of one ``(seed, class)`` pair."""
    return random.Random(f"{seed}/{scenario_class}")


# ----------------------------------------------------------------------
# Building blocks
# ----------------------------------------------------------------------
def _pick_unit(rng: random.Random, index: int) -> Tuple[TopologyFamily, object, Circuit]:
    """Family round-robin + size sweep + seeded component values."""
    family = FAMILIES[index % len(FAMILIES)]
    size = family.sizes[(index // len(FAMILIES)) % len(family.sizes)]
    golden = family.build(size, rng)
    return family, size, golden


def _solve(circuit: Circuit) -> OperatingPoint:
    return DCSolver(circuit).solve()


def _readings(
    op: OperatingPoint, nets: Sequence[str]
) -> Tuple[Tuple[str, float, float, float, float], ...]:
    out = []
    for net in nets:
        out.append(probe(op, net, IMPRECISION).as_tuple())
    return tuple(out)


def _hard_fault(rng: random.Random, circuit: Circuit, component: str) -> Fault:
    # For a gain block OPEN means stuck-at-zero and SHORT a unity
    # pass-through; for a resistor the usual extreme resistances.
    return Fault(rng.choice((FaultKind.OPEN, FaultKind.SHORT)), component)


def _drift_fault(rng: random.Random, circuit: Circuit, component: str) -> Fault:
    comp = circuit.component(component)
    tolerance = comp.tolerance if comp.tolerance > 0 else 0.05
    magnitude = rng.uniform(*DRIFT_BAND) * tolerance
    sign = rng.choice((-1.0, 1.0))
    # A -100% drift would zero the parameter; cap the low side.
    fraction = max(sign * magnitude, -0.8)
    return Fault(FaultKind.DRIFT, component, value=fraction)


# ----------------------------------------------------------------------
# Scenario-class generators.  Each returns (measurements, expected,
# faults, metadata) for one scenario, or raises SimulationError when the
# drawn unit cannot be solved (the driver resamples).
# ----------------------------------------------------------------------
def _gen_single_hard(rng, family, golden, nets, index):
    fault = _hard_fault(rng, golden, rng.choice(family.faultable(golden)))
    op = _solve(apply_faults(golden, [fault]))
    return _readings(op, nets), (fault.component,), (fault,), ()


def _gen_single_drift(rng, family, golden, nets, index):
    fault = _drift_fault(rng, golden, rng.choice(family.faultable(golden)))
    op = _solve(apply_faults(golden, [fault]))
    return _readings(op, nets), (fault.component,), (fault,), ()


def _gen_multi_fault(rng, family, golden, nets, index):
    names = family.faultable(golden)
    if len(names) < 2:
        raise SimulationError("family too small for a multi-fault scenario")
    first, second = rng.sample(names, 2)
    faults = []
    for component in (first, second):
        maker = rng.choice((_hard_fault, _drift_fault))
        faults.append(maker(rng, golden, component))
    op = _solve(apply_faults(golden, faults))
    expected = tuple(sorted(f.component for f in faults))
    return _readings(op, nets), expected, tuple(faults), ()


def _blend_reading(
    rng: random.Random, net: str, vg: float, vf: float
) -> Tuple[str, float, float, float, float]:
    """A flickering defect integrated by the instrument.

    The reading's flat core sits on the faulty value, but its fuzzy
    fringe trails all the way back past the golden value: the meter
    mostly saw the defect, with a tail of healthy readings.  Against the
    golden prediction this gives partial possibility and partial area
    overlap, so the conflict engine records a weighted nogood with
    degree strictly inside (0, 1) — the paper's low-degree signature of
    intermittency — instead of the hard 1.0 a persistent defect pins.
    """
    gap = abs(vf - vg)
    reach = gap + rng.uniform(0.2, 0.5) * gap + IMPRECISION
    alpha, beta = (reach, IMPRECISION) if vf >= vg else (IMPRECISION, reach)
    return (f"V({net})", vf - IMPRECISION, vf + IMPRECISION, alpha, beta)


def _verify_intermittent(golden: Circuit, readings, culprit: str) -> None:
    """Resample guard: the scenario must show the intermittent signature.

    Runs the reference engine once and demands (a) a partial —
    low-degree — nogood and (b) the culprit among the suspects.  Drawn
    units whose predictions are too wide (deep tolerance stacks swallow
    the blend) get rejected and the driver resamples deterministically.
    """
    from repro.core.diagnosis import Flames, FlamesConfig

    measurements = [Measurement.from_tuple(r) for r in readings]
    result = Flames(golden, FlamesConfig()).diagnose(measurements)
    if not any(1e-6 < ng.degree < CERTAIN for ng in result.nogoods):
        raise SimulationError("no low-degree nogood surfaced")
    if culprit not in dict(result.ranked_components()):
        raise SimulationError("culprit not among the suspects")


def _gen_intermittent(rng, family, golden, nets, index):
    base = _hard_fault(rng, golden, rng.choice(family.faultable(golden)))
    fault = Fault(FaultKind.INTERMITTENT, base.component, base=base)
    op_faulty = _solve(apply_faults(golden, [fault]))
    op_golden = _solve(golden)
    # Probes where the defect moves the reading beyond instrument fuzz.
    observable = [
        net
        for net in nets
        if abs(op_faulty.voltage(net) - op_golden.voltage(net)) > 4 * IMPRECISION
    ]
    if not observable:
        raise SimulationError("intermittent defect invisible at every probe")
    present = sorted(net for net in observable if rng.random() < 0.6)
    if not present:
        present = [observable[rng.randrange(len(observable))]]
    chosen = set(present)
    readings = []
    for net in nets:
        if net in chosen:
            vg, vf = op_golden.voltage(net), op_faulty.voltage(net)
            readings.append(_blend_reading(rng, net, vg, vf))
        else:
            readings.append(probe(op_golden, net, IMPRECISION).as_tuple())
    _verify_intermittent(golden, readings, base.component)
    metadata = (("present", present),)
    return tuple(readings), (base.component,), (fault,), metadata


def _gen_tempco_drift(rng, family, golden, nets, index):
    names = family.faultable(golden)
    culprit = rng.choice(names)
    delta_t = rng.choice(TEMPCO_DELTAS)
    sign = rng.choice((-1.0, 1.0))
    drifts = []
    culprit_tempco = 0.0
    for name in names:
        if name == culprit:
            tempco = rng.uniform(*TEMPCO_BAD)
            culprit_tempco = tempco
        else:
            tempco = rng.uniform(*TEMPCO_BENIGN)
        drifts.append(Fault(FaultKind.DRIFT, name, value=sign * tempco * delta_t))
    op = _solve(apply_faults(golden, drifts))
    fault = Fault(FaultKind.DRIFT, culprit, value=sign * culprit_tempco * delta_t)
    metadata = (("delta_t", delta_t), ("tempco", culprit_tempco))
    return _readings(op, nets), (culprit,), (fault,), metadata


def _gen_tolerance_stackup(rng, family, golden, nets, index):
    drifts = []
    for name in family.faultable(golden):
        comp = golden.component(name)
        tolerance = comp.tolerance if comp.tolerance > 0 else 0.05
        fraction = rng.uniform(-1.0, 1.0) * tolerance * rng.uniform(0.5, 1.2)
        drifts.append(Fault(FaultKind.DRIFT, name, value=fraction))
    op = _solve(apply_faults(golden, drifts))
    # No defect: the drift is tolerance noise, so expected and faults
    # stay empty — the correct diagnosis indicts nobody with certainty.
    return _readings(op, nets), (), (), ()


_GENERATORS = {
    "single-hard": _gen_single_hard,
    "single-drift": _gen_single_drift,
    "multi-fault": _gen_multi_fault,
    "intermittent": _gen_intermittent,
    "tempco-drift": _gen_tempco_drift,
    "tolerance-stackup": _gen_tolerance_stackup,
}

#: Resample budget per scenario before giving up on a class.
_MAX_ATTEMPTS = 16


def generate_corpus(
    seed: int,
    per_class: int,
    classes: Optional[Sequence[str]] = None,
) -> CorpusManifest:
    """Generate ``per_class`` scenarios for every requested class.

    Deterministic: the same ``(seed, classes, per_class)`` recipe always
    yields a byte-identical manifest, and each class's scenarios do not
    depend on which other classes were requested.
    """
    chosen = list(classes) if classes is not None else list(CLASSES)
    unknown = [c for c in chosen if c not in _GENERATORS]
    if unknown:
        raise ValueError(
            f"unknown scenario classes {unknown}; choices: {', '.join(CLASSES)}"
        )
    if per_class < 1:
        raise ValueError("per_class must be positive")
    manifest = CorpusManifest(seed=seed, classes=chosen, per_class=per_class)
    for scenario_class in chosen:
        rng = class_rng(seed, scenario_class)
        generate = _GENERATORS[scenario_class]
        for index in range(per_class):
            scenario = None
            for attempt in range(_MAX_ATTEMPTS):
                family, size, golden = _pick_unit(rng, index)
                nets = family.probe_nets(golden)
                try:
                    measurements, expected, faults, extra = generate(
                        rng, family, golden, nets, index
                    )
                except (SimulationError, ValueError):
                    continue
                metadata = (("family", family.name), ("size", str(size))) + tuple(extra)
                scenario = Scenario(
                    id=f"{scenario_class}-{index:04d}",
                    scenario_class=scenario_class,
                    netlist_text=write_netlist(golden),
                    measurements=measurements,
                    expected=expected,
                    faults=faults,
                    metadata=tuple(sorted(metadata)),
                )
                break
            if scenario is None:
                raise RuntimeError(
                    f"could not generate a solvable {scenario_class!r} scenario "
                    f"after {_MAX_ATTEMPTS} attempts (index {index})"
                )
            manifest.scenarios.append(scenario)
    return manifest
